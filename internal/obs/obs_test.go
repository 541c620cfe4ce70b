package obs

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// fakeClock hands out strictly increasing instants one millisecond apart.
func fakeClock() func() time.Time {
	t := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestSpanLifecycle(t *testing.T) {
	tr := New(Config{Now: fakeClock()})
	root := tr.StartTrace("job")
	root.SetStr("job_id", "job-000001")
	if root.TraceID() == "" || root.SpanID() == "" {
		t.Fatal("root span has empty IDs")
	}

	child := root.StartChild("stage.convert")
	child.SetInt("bytes", 42)
	child.SetFloat("score", 0.5)
	child.SetBool("ok", true)
	child.Event("started")
	child.EventInt("rows", "count", 7)
	child.End()
	child.SetInt("after_end", 1) // must be dropped
	child.End()                  // idempotent

	grand := child.StartChild("late") // children of an ended span still record
	grand.End()

	if tr.Len() != 0 {
		t.Fatalf("trace finished before root ended: Len = %d", tr.Len())
	}
	if n := len(root.Ended()); n != 2 {
		t.Fatalf("Ended before root end has %d spans, want 2", n)
	}
	root.End()
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after root end, want 1", tr.Len())
	}
	if n := len(grand.Ended()); n != 3 {
		t.Fatalf("Ended after root end has %d spans, want 3", n)
	}

	got, ok := tr.Trace(root.TraceID())
	if !ok {
		t.Fatalf("Trace(%q) not found", root.TraceID())
	}
	if len(got.Spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(got.Spans))
	}
	if got.Name != "job" || got.DurationNS <= 0 {
		t.Errorf("trace = {Name: %q, DurationNS: %d}, want job with positive duration", got.Name, got.DurationNS)
	}

	byName := map[string]*SpanRecord{}
	for _, s := range got.Spans {
		byName[s.Name] = s
	}
	conv := byName["stage.convert"]
	if conv == nil {
		t.Fatal("stage.convert span missing")
	}
	if conv.ParentID != root.SpanID() {
		t.Errorf("stage.convert parent = %q, want root %q", conv.ParentID, root.SpanID())
	}
	if conv.Attrs["bytes"] != int64(42) || conv.Attrs["score"] != 0.5 || conv.Attrs["ok"] != true {
		t.Errorf("attrs = %v, want bytes=42 score=0.5 ok=true", conv.Attrs)
	}
	if _, ok := conv.Attrs["after_end"]; ok {
		t.Error("attribute set after End was recorded")
	}
	if len(conv.Events) != 2 || conv.Events[1].Attrs["count"] != int64(7) {
		t.Errorf("events = %+v, want started + rows{count: 7}", conv.Events)
	}
	if conv.Events[1].OffsetNS < 0 {
		t.Errorf("event offset %d is negative", conv.Events[1].OffsetNS)
	}

	tree := got.Tree()
	if tree == nil || tree.Name != "job" || len(tree.Children) != 1 {
		t.Fatalf("tree root = %+v, want job with 1 child", tree)
	}
	if tree.Children[0].Name != "stage.convert" || len(tree.Children[0].Children) != 1 {
		t.Errorf("tree child = %q with %d children, want stage.convert with 1",
			tree.Children[0].Name, len(tree.Children[0].Children))
	}
}

func TestRingBufferEviction(t *testing.T) {
	tr := New(Config{Capacity: 2, Now: fakeClock()})
	var ids []string
	var roots []*Span
	for i := 0; i < 3; i++ {
		root := tr.StartTrace(fmt.Sprintf("t%d", i))
		ids = append(ids, root.TraceID())
		roots = append(roots, root)
		root.End()
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want capacity 2", tr.Len())
	}
	if _, ok := tr.Trace(ids[0]); ok {
		t.Error("oldest trace survived eviction")
	}
	if ended := roots[0].Ended(); len(ended) != 1 || ended[0].Name != "t0" {
		t.Errorf("Ended on the evicted trace = %v, want its root t0", ended)
	}
	for _, id := range ids[1:] {
		if _, ok := tr.Trace(id); !ok {
			t.Errorf("trace %s evicted, want retained", id)
		}
	}
	recent := tr.Recent()
	if len(recent) != 2 || recent[0].Name != "t1" || recent[1].Name != "t2" {
		t.Errorf("Recent = %v, want [t1 t2]", recent)
	}
}

func TestSlowest(t *testing.T) {
	clock := fakeClock()
	tr := New(Config{Now: clock})
	// t0 spans 1 tick, t1 spans 3 ticks, t2 spans 1 tick.
	for i, extra := range []int{0, 2, 0} {
		root := tr.StartTrace(fmt.Sprintf("t%d", i))
		for j := 0; j < extra; j++ {
			clock()
		}
		root.End()
	}
	slow := tr.Slowest(2)
	if len(slow) != 2 || slow[0].Name != "t1" {
		t.Fatalf("Slowest(2) = %v, want t1 first", slow)
	}
	if got := tr.Slowest(10); len(got) != 3 {
		t.Errorf("Slowest(10) returned %d traces, want all 3", len(got))
	}
}

// TestNoopZeroAllocs is the contract the hot paths rely on: with no tracer
// installed, the full instrumentation surface — context lookup, child
// start, attributes, events, end, context install — allocates nothing.
func TestNoopZeroAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		sp := FromContext(ctx)
		child := sp.StartChild("stage.convert")
		child.SetInt("vars", 12)
		child.SetStr("solver", "milp")
		child.SetFloat("big_m", 1e6)
		child.SetBool("memo_hit", false)
		child.Event("incumbent")
		child.EventInt("incumbent", "objective", 3)
		child.EventFloat("cutoff", "objective", 2)
		if c2 := ContextWithSpan(ctx, child); c2 != ctx {
			t.Fatal("ContextWithSpan(nil span) must return ctx unchanged")
		}
		child.End()
		if child.TraceID() != "" || child.SpanID() != "" || child.Ended() != nil {
			t.Fatal("nil span must have empty IDs and no ended spans")
		}
	})
	if allocs > 0 {
		t.Errorf("no-op instrumentation allocates %.1f objects/op, want 0", allocs)
	}
}

func TestContextPropagation(t *testing.T) {
	tr := New(Config{Now: fakeClock()})
	root := tr.StartTrace("job")
	ctx := ContextWithSpan(context.Background(), root)
	if FromContext(ctx) != root {
		t.Fatal("FromContext did not return the installed span")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("FromContext on a bare context must return nil")
	}
	child := FromContext(ctx).StartChild("inner")
	if child.TraceID() != root.TraceID() {
		t.Errorf("child trace %q, want %q", child.TraceID(), root.TraceID())
	}
	child.End()
	root.End()
}
