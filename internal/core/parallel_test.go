package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dart/internal/core"
	"dart/internal/milp"
	"dart/internal/runningex"
)

// multiErrorDB corrupts independent cells across several years so the
// prepared problem decomposes into multiple violated components.
func multiErrorDB(t *testing.T) map[[2]string]int64 {
	t.Helper()
	return map[[2]string]int64{
		{"2003", "cash sales"}:          170,
		{"2003", "ending cash balance"}: 999,
		{"2004", "receivables"}:         130,
		{"2004", "capital expenditure"}: 45,
	}
}

// TestSolverWorkersMatchesSequential: the branch-and-bound worker budget
// (node-level parallelism) must not change the repair — the milp kernel's
// deterministic tie rule guarantees it, and this checks the wire-through.
func TestSolverWorkersMatchesSequential(t *testing.T) {
	run := func(s *core.MILPSolver) *core.Result {
		t.Helper()
		db := runningex.CorrectDatabase()
		corrupt(t, db, multiErrorDB(t))
		res, err := core.FindRepair(context.Background(), s, db, runningex.Constraints(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != milp.StatusOptimal {
			t.Fatalf("status %v", res.Status)
		}
		return res
	}
	seq := run(&core.MILPSolver{SolverWorkers: 1})
	for _, workers := range []int{2, 4} {
		par := run(&core.MILPSolver{SolverWorkers: workers})
		if seq.Card != par.Card {
			t.Errorf("SolverWorkers=%d: card %d, want %d", workers, par.Card, seq.Card)
		}
		if seq.Repair.String() != par.Repair.String() {
			t.Errorf("SolverWorkers=%d: repairs differ:\nseq: %v\npar: %v",
				workers, seq.Repair, par.Repair)
		}
		if seq.Components != par.Components {
			t.Errorf("SolverWorkers=%d: components %d, want %d", workers, par.Components, seq.Components)
		}
	}
}

// TestComponentErrorSurfacesOverSiblingCancel: when a component solve
// fails, that failure is what the multi-component solve returns, unwrapped
// by any cancellation of the components after it.
func TestComponentErrorSurfacesOverSiblingCancel(t *testing.T) {
	db := runningex.CorrectDatabase()
	corrupt(t, db, multiErrorDB(t))
	// A negative simplex iteration budget makes every component's LP fail
	// immediately with a real error.
	s := &core.MILPSolver{
		Options: milp.MILPOptions{Simplex: milp.SimplexOptions{MaxIters: -1}},
	}
	_, err := core.FindRepair(context.Background(), s, db, runningex.Constraints(), nil)
	if err == nil {
		t.Fatal("expected an error from the crippled simplex")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation masked the real error: %v", err)
	}
	if !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestCallerCancelStillSurfaces: when the caller's own context is
// cancelled, that cancellation is what comes back.
func TestCallerCancelStillSurfaces(t *testing.T) {
	db := runningex.CorrectDatabase()
	corrupt(t, db, multiErrorDB(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prob, err := core.Prepare(db, runningex.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	_, err = (&core.MILPSolver{}).SolveProblem(ctx, prob, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
