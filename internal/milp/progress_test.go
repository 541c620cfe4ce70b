package milp

import (
	"math/rand"
	"testing"

	"dart/internal/obs"
)

// liveSolve runs one solve with its trace bound to a fresh bus and returns
// every solver event published during the search, in sequence order.
func liveSolve(t *testing.T, m *Model, opt MILPOptions) (*MILPResult, []obs.Event) {
	t.Helper()
	bus := obs.NewBus(obs.BusConfig{Ring: 4096, Buffer: 4096})
	tr := obs.New(obs.Config{})
	root := tr.StartTrace("job")
	root.Live(bus, "job-test")
	root.PublishScope("component:0")
	sub, _ := bus.Subscribe("test", 4096)
	opt.Trace = root
	res, err := Solve(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	sub.Close()
	if sub.Dropped() > 0 {
		t.Fatalf("test subscriber dropped %d events; grow the buffer", sub.Dropped())
	}
	var events []obs.Event
	for ev := range sub.C() {
		if ev.Kind == obs.KindSolver {
			events = append(events, ev)
		}
	}
	return res, events
}

// TestLiveSolveEventTimeline: a bus-bound solve publishes a solver event
// timeline whose gap never increases and which terminates in exactly one
// "done" event reporting the solve's status — the acceptance criterion for
// SSE consumers watching convergence.
func TestLiveSolveEventTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sawIncumbent := false
	for trial := 0; trial < 20; trial++ {
		m := randomIntegerModel(rng.Int63())
		res, events := liveSolve(t, m, MILPOptions{})
		if len(events) == 0 {
			t.Fatalf("trial %d: live solve published no solver events", trial)
		}
		last := events[len(events)-1]
		if last.Name != "done" {
			t.Fatalf("trial %d: final solver event is %q, want done", trial, last.Name)
		}
		if last.State != res.Status.String() {
			t.Fatalf("trial %d: done state %q, want %q", trial, last.State, res.Status)
		}
		prevGap := 1.0
		for i, ev := range events {
			if ev.Gap < 0 || ev.Gap > 1 {
				t.Fatalf("trial %d event %d: gap %v outside [0,1]", trial, i, ev.Gap)
			}
			if ev.Gap > prevGap+1e-12 {
				t.Fatalf("trial %d event %d (%s): gap %v increased from %v",
					trial, i, ev.Name, ev.Gap, prevGap)
			}
			prevGap = ev.Gap
			if ev.Name == "done" && i != len(events)-1 {
				t.Fatalf("trial %d: done event %d is not last of %d", trial, i, len(events))
			}
			if ev.Scope != "component:0" || ev.JobID != "job-test" {
				t.Fatalf("trial %d event %d: stamped %q/%q", trial, i, ev.Scope, ev.JobID)
			}
			if ev.Name == "incumbent" {
				sawIncumbent = true
			}
		}
		if res.Status == StatusOptimal {
			if last.Gap != 0 {
				t.Fatalf("trial %d: optimal solve finished with gap %v, want 0", trial, last.Gap)
			}
			//dartvet:allow floatcmp -- the done event must report the committed incumbent bit-exactly
			if last.Incumbent != res.Objective {
				t.Fatalf("trial %d: done incumbent %v, want objective %v", trial, last.Incumbent, res.Objective)
			}
		}
		if last.Nodes != int64(res.Nodes) {
			t.Fatalf("trial %d: done nodes %d, want %d", trial, last.Nodes, res.Nodes)
		}
	}
	if !sawIncumbent {
		t.Fatal("no trial published an incumbent event")
	}
}

// TestLiveSolveMatchesSilentSolve: telemetry is purely observational — a
// bus-bound solve returns the bit-identical result of an unbound one.
func TestLiveSolveMatchesSilentSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	for trial := 0; trial < 15; trial++ {
		src := rng.Int63()
		silent, err := Solve(randomIntegerModel(src), MILPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		live, _ := liveSolve(t, randomIntegerModel(src), MILPOptions{})
		sameResult(t, "live-vs-silent", silent, live)
	}
}

// TestUnboundTraceSkipsTelemetry: a trace that is recorded but never bound
// to a bus must leave the progress subsystem disarmed (bbSearch.prog nil ⇒ no
// per-node telemetry work) and publish nothing.
func TestUnboundTraceSkipsTelemetry(t *testing.T) {
	tr := obs.New(obs.Config{})
	root := tr.StartTrace("job")
	defer root.End()
	if root.IsLive() {
		t.Fatal("unbound trace reports live")
	}
	res, err := Solve(randomIntegerModel(555), MILPOptions{Trace: root})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no result")
	}
}

// TestProgressEventCadence: a node-limited solve long enough to cross the
// periodic threshold publishes interior progress checkpoints, not only the
// terminal event.
func TestProgressEventCadence(t *testing.T) {
	// A model the search cannot finish instantly: max independent-set-like
	// packing with many symmetric binaries.
	m := NewModel()
	n := 14
	for j := 0; j < n; j++ {
		m.AddVar("x", 0, 1, Binary, -1)
	}
	for j := 0; j+2 < n; j++ {
		m.MustAddConstraint("pair", []Term{{Var(j), 1}, {Var(j + 1), 1}, {Var(j + 2), 1}}, LE, 2)
	}
	res, events := liveSolve(t, m, MILPOptions{DisableRounding: true})
	if res.Nodes < bbProgressEvery {
		t.Skipf("search too easy to exercise cadence: %d nodes", res.Nodes)
	}
	interior := 0
	for _, ev := range events {
		if ev.Name == "progress" {
			interior++
			if ev.NodesPerSec <= 0 {
				t.Fatalf("progress event without throughput: %+v", ev)
			}
		}
	}
	if interior == 0 {
		t.Fatalf("%d-node solve published no periodic progress events", res.Nodes)
	}
}
