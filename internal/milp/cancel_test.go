package milp

import (
	"errors"
	"testing"

	"dart/internal/obs"
)

// cancelModel builds a small binary program whose branch-and-bound explores
// more than one node.
func cancelModel(t *testing.T) *Model {
	t.Helper()
	m := NewModel()
	x := make([]Var, 6)
	for i := range x {
		x[i] = m.AddVar("x"+string(rune('0'+i)), 0, 1, Binary, 1)
	}
	// Knapsack-style rows forcing fractional relaxations.
	m.MustAddConstraint("r1", []Term{{x[0], 2}, {x[1], 3}, {x[2], 5}, {x[3], 7}}, GE, 8)
	m.MustAddConstraint("r2", []Term{{x[2], 2}, {x[3], 3}, {x[4], 5}, {x[5], 7}}, GE, 8)
	return m
}

// TestSolveCancelImmediate: a pre-failed Cancel aborts before any work.
func TestSolveCancelImmediate(t *testing.T) {
	sentinel := errors.New("cancelled")
	_, err := Solve(cancelModel(t), MILPOptions{Cancel: func() error { return sentinel }})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

// TestSolveCancelMidSearch: cancellation raised after the first node stops
// the search at the next node boundary.
func TestSolveCancelMidSearch(t *testing.T) {
	sentinel := errors.New("stop now")
	calls := 0
	_, err := Solve(cancelModel(t), MILPOptions{Cancel: func() error {
		calls++
		if calls > 2 {
			return sentinel
		}
		return nil
	}})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel after %d polls", err, calls)
	}
}

// TestSolveNoCancelStillOptimal: the hook's absence changes nothing.
func TestSolveNoCancelStillOptimal(t *testing.T) {
	res, err := Solve(cancelModel(t), MILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
}

// TestParallelCancel: a live solve cancelled mid-search surfaces the hook's
// error unwrapped and publishes no terminal "done" event.
func TestParallelCancel(t *testing.T) {
	bus := obs.NewBus(obs.BusConfig{Ring: 256, Buffer: 256})
	root := obs.New(obs.Config{}).StartTrace("job")
	root.Live(bus, "job-test")
	sub, _ := bus.Subscribe("test", 256)
	sentinel := errors.New("stop now")
	calls := 0
	_, err := Solve(cancelModel(t), MILPOptions{Trace: root, Cancel: func() error {
		calls++
		if calls > 2 {
			return sentinel
		}
		return nil
	}})
	root.End()
	sub.Close()
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel after %d polls", err, calls)
	}
	for ev := range sub.C() {
		if ev.Kind == obs.KindSolver && ev.Name == "done" {
			t.Fatalf("cancelled solve published %+v", ev)
		}
	}
}
