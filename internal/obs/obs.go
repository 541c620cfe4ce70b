// Package obs is the observability layer of the DART reproduction: a
// context-propagated span tracer plus a slog-based structured logger, both
// stdlib-only. One trace is the span tree of one unit of work (a dartd job,
// a CLI run); spans cover pipeline stages, repair-problem components
// (with their branch-and-bound events), and validation-loop iterations,
// so a single slow or misbehaving job can be inspected per decision
// instead of only through fleet-wide histograms.
//
// The tracer is built to cost nothing when it is off. Every method of
// *Span is nil-receiver safe, FromContext returns nil when no span was
// installed, and ContextWithSpan returns the context unchanged for a nil
// span — so an uninstrumented call path (no tracer configured) performs no
// allocations and no locked operations, only nil checks. The attribute and
// event setters are deliberately typed and fixed-arity (SetInt, EventFloat,
// ...) rather than variadic: variadic any arguments would box and allocate
// at the call site even when the receiver is nil.
//
// Finished traces land in a bounded ring buffer (for the dartd debug
// endpoints) and, optionally, in a JSONL exporter (one span per line; see
// export.go), the artifact format shared by dartd -trace-export and
// dart -trace.
package obs

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Tracer.
type Config struct {
	// Capacity bounds the finished traces retained for inspection
	// (default 128); the oldest trace is evicted first.
	Capacity int
	// Export, when non-nil, receives every finished trace's spans as JSONL
	// (one span record per line), written at trace completion.
	Export io.Writer
	// Now overrides the clock (tests only; default time.Now).
	Now func() time.Time
}

// Tracer creates traces and retains the most recent finished ones.
type Tracer struct {
	mu        sync.Mutex
	capacity  int
	export    io.Writer
	exportErr error
	traces    map[string]*Trace
	order     []string // finished-trace IDs, oldest first
	rng       *rand.Rand
	now       func() time.Time
	dropped   atomic.Uint64 // spans lost to ring eviction or post-seal ends
}

// New creates a tracer.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 128
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Tracer{
		capacity: cfg.Capacity,
		export:   cfg.Export,
		traces:   make(map[string]*Trace),
		rng:      rand.New(rand.NewSource(now().UnixNano())),
		now:      now,
	}
}

// newID returns a fresh nonzero 64-bit identifier rendered as 16 hex
// digits.
func (t *Tracer) newID() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.rng.Uint64()
	for id == 0 {
		id = t.rng.Uint64()
	}
	return fmt.Sprintf("%016x", id)
}

// StartTrace begins a new trace and returns its root span. The trace is
// finished — retained in the ring buffer and exported — when the root span
// ends. A nil tracer returns a nil span, which no-ops everywhere.
func (t *Tracer) StartTrace(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		tracer: t,
		trace:  &activeTrace{id: t.newID()},
		id:     t.newID(),
		name:   name,
		start:  t.now(),
	}
	s.trace.root = s
	return s
}

// Trace returns the finished trace with the given ID, if it is still
// retained.
func (t *Tracer) Trace(id string) (*Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.traces[id]
	return tr, ok
}

// Recent returns the retained finished traces, oldest first.
func (t *Tracer) Recent() []*Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.traces[id])
	}
	return out
}

// Slowest returns up to n retained traces ordered by descending duration
// (ties broken oldest first).
func (t *Tracer) Slowest(n int) []*Trace {
	all := t.Recent()
	sort.SliceStable(all, func(i, j int) bool {
		return all[i].DurationNS > all[j].DurationNS
	})
	if n >= 0 && n < len(all) {
		all = all[:n]
	}
	return all
}

// Len returns the number of retained finished traces.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}

// ExportErr returns the first error the JSONL exporter hit, if any.
func (t *Tracer) ExportErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exportErr
}

// finish retains a completed trace, evicting the oldest beyond capacity,
// and exports its spans as JSONL.
func (t *Tracer) finish(tr *Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces[tr.TraceID] = tr
	t.order = append(t.order, tr.TraceID)
	for len(t.order) > t.capacity {
		evicted := t.traces[t.order[0]]
		if evicted != nil {
			t.dropped.Add(uint64(len(evicted.Spans)))
		}
		delete(t.traces, t.order[0])
		t.order = t.order[1:]
	}
	if t.export != nil && t.exportErr == nil {
		t.exportErr = writeSpans(t.export, tr.Spans)
	}
}

// DroppedSpans returns how many span records the tracer has discarded —
// spans of traces evicted from the ring buffer plus spans that ended
// after their trace was sealed. Exposed as dart_trace_spans_dropped_total.
func (t *Tracer) DroppedSpans() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// activeTrace is a trace still being recorded: finished spans accumulate
// until the root span ends.
type activeTrace struct {
	id   string
	root *Span

	// live, when set, routes Publish calls from any span of this trace
	// onto a telemetry bus, stamped with the bound job ID. It is an atomic
	// pointer so hot-path publish sites pay one load to discover the bus
	// is absent.
	live atomic.Pointer[liveBinding]

	mu    sync.Mutex
	spans []*SpanRecord
	done  bool
}

// liveBinding ties an in-flight trace to a telemetry bus and the job it
// belongs to.
type liveBinding struct {
	bus   *Bus
	jobID string
}

// add appends one finished span. Spans ending after the root (which
// should not happen with disciplined instrumentation) are dropped: the
// trace has already been published.
func (at *activeTrace) add(rec *SpanRecord) bool {
	at.mu.Lock()
	defer at.mu.Unlock()
	if at.done {
		return false
	}
	at.spans = append(at.spans, rec)
	return true
}

// seal marks the trace complete and returns its spans ordered by start
// time (ties broken by span ID) with the root last among equals.
func (at *activeTrace) seal() []*SpanRecord {
	at.mu.Lock()
	defer at.mu.Unlock()
	at.done = true
	spans := at.spans
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].SpanID < spans[j].SpanID
	})
	return spans
}

// Span is one timed operation within a trace. The zero of usefulness is a
// nil *Span: every method no-ops (and allocates nothing) on a nil
// receiver, so instrumented code needs no "is tracing on" branches beyond
// the nil checks it writes anyway to skip attribute computation.
type Span struct {
	tracer *Tracer
	trace  *activeTrace
	id     string
	parent string
	name   string
	start  time.Time

	mu     sync.Mutex
	attrs  []Attr
	events []EventRecord
	ended  bool
	scope  string // stamped onto live events published through this span
}

// Attr is one key/value annotation of a span or event.
type Attr struct {
	Key   string
	Value any
}

// StartChild begins a child span. On a nil receiver it returns nil. The
// child inherits the parent's publish scope.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	scope := s.scope
	s.mu.Unlock()
	return &Span{
		tracer: s.tracer,
		trace:  s.trace,
		id:     s.tracer.newID(),
		parent: s.id,
		name:   name,
		start:  s.tracer.now(),
		scope:  scope,
	}
}

// Live binds the span's trace to a telemetry bus under the given job ID:
// from now on, Publish calls on any span of this trace (and span
// completions) flow onto bus stamped with the trace and job IDs. A nil
// span or nil bus leaves the trace unbound.
func (s *Span) Live(bus *Bus, jobID string) {
	if s == nil || bus == nil {
		return
	}
	s.trace.live.Store(&liveBinding{bus: bus, jobID: jobID})
}

// IsLive reports whether live events published through this span reach a
// bus. Hot paths gate their telemetry computation on it: on a nil span or
// an unbound trace it costs a nil check plus one atomic load and never
// allocates.
func (s *Span) IsLive() bool {
	return s != nil && s.trace.live.Load() != nil
}

// PublishScope tags the span: live events published through it (and
// through children started afterwards) carry this Scope, locating them
// within the job — e.g. "component:2".
func (s *Span) PublishScope(scope string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.scope = scope
	s.mu.Unlock()
}

// Publish emits a live event through the span's trace binding, stamping
// the trace ID, bound job ID, and the span's publish scope (each only if
// the event does not already carry one). Without a binding — nil span,
// no tracer, or a trace never marked Live — it is a no-op that allocates
// nothing.
func (s *Span) Publish(ev Event) {
	if s == nil {
		return
	}
	lb := s.trace.live.Load()
	if lb == nil {
		return
	}
	if ev.TraceID == "" {
		ev.TraceID = s.trace.id
	}
	if ev.JobID == "" {
		ev.JobID = lb.jobID
	}
	if ev.Scope == "" {
		s.mu.Lock()
		ev.Scope = s.scope
		s.mu.Unlock()
	}
	lb.bus.Publish(ev)
}

// TraceID returns the span's trace identifier ("" on a nil receiver).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace.id
}

// SpanID returns the span's identifier ("" on a nil receiver).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Ended returns the records of the spans of s's trace that have ended so
// far, the root included once it has ended. It reads the trace itself, not
// the tracer's ring buffer, so it sees every span even after the trace is
// evicted. A nil receiver returns nil.
func (s *Span) Ended() []*SpanRecord {
	if s == nil {
		return nil
	}
	s.trace.mu.Lock()
	defer s.trace.mu.Unlock()
	return append([]*SpanRecord(nil), s.trace.spans...)
}

// setAttr appends one annotation (last write wins at record-build time).
func (s *Span) setAttr(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{Key: key, Value: v})
	}
}

// SetStr annotates the span with a string value.
func (s *Span) SetStr(key, v string) {
	if s != nil {
		s.setAttr(key, v)
	}
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, v int) {
	if s != nil {
		s.setAttr(key, int64(v))
	}
}

// SetFloat annotates the span with a float value.
func (s *Span) SetFloat(key string, v float64) {
	if s != nil {
		s.setAttr(key, v)
	}
}

// SetBool annotates the span with a boolean value.
func (s *Span) SetBool(key string, v bool) {
	if s != nil {
		s.setAttr(key, v)
	}
}

// event appends one timestamped event.
func (s *Span) event(name string, attrs map[string]any) {
	now := s.tracer.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.events = append(s.events, EventRecord{
		Name:     name,
		OffsetNS: now.Sub(s.start).Nanoseconds(),
		Attrs:    attrs,
	})
}

// Event records a named point-in-time occurrence on the span.
func (s *Span) Event(name string) {
	if s != nil {
		s.event(name, nil)
	}
}

// EventInt records an event carrying one integer attribute.
func (s *Span) EventInt(name, key string, v int) {
	if s != nil {
		s.event(name, map[string]any{key: int64(v)})
	}
}

// EventFloat records an event carrying one float attribute.
func (s *Span) EventFloat(name, key string, v float64) {
	if s != nil {
		s.event(name, map[string]any{key: v})
	}
}

// End finishes the span, committing its record to the trace. Ending the
// root span completes the whole trace: it becomes visible through the
// tracer's ring buffer and is exported. End is idempotent; on a nil
// receiver it no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.tracer.now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := &SpanRecord{
		TraceID:    s.trace.id,
		SpanID:     s.id,
		ParentID:   s.parent,
		Name:       s.name,
		Start:      s.start.UTC(),
		DurationNS: end.Sub(s.start).Nanoseconds(),
		Events:     s.events,
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	scope := s.scope
	s.mu.Unlock()
	if !s.trace.add(rec) {
		s.tracer.dropped.Add(1)
	}
	if lb := s.trace.live.Load(); lb != nil {
		lb.bus.Publish(Event{
			Kind:    KindSpan,
			Name:    s.name,
			JobID:   lb.jobID,
			TraceID: s.trace.id,
			Scope:   scope,
			Value:   float64(rec.DurationNS) / 1e6,
		})
	}
	if s == s.trace.root {
		spans := s.trace.seal()
		s.tracer.finish(&Trace{
			TraceID:    s.trace.id,
			Name:       s.name,
			Start:      rec.Start,
			DurationNS: rec.DurationNS,
			Spans:      spans,
		})
	}
}

// spanKey carries the active span through a context.
type spanKey struct{}

// ContextWithSpan installs a span into a context. A nil span returns ctx
// unchanged, so untraced paths allocate nothing.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// FromContext returns the context's active span, or nil when tracing is
// off for this call path.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
