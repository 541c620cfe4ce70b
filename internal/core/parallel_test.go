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
	for _, s := range []*core.MILPSolver{
		{SolverWorkers: 4},
		{Workers: 2, SolverWorkers: 4}, // two-level: components x nodes
		{Workers: 4, SolverWorkers: 1}, // component parallelism alone
	} {
		par := run(s)
		if seq.Card != par.Card {
			t.Errorf("Workers=%d SolverWorkers=%d: card %d, want %d", s.Workers, s.SolverWorkers, par.Card, seq.Card)
		}
		if seq.Repair.String() != par.Repair.String() {
			t.Errorf("Workers=%d SolverWorkers=%d: repairs differ:\nseq: %v\npar: %v",
				s.Workers, s.SolverWorkers, par.Repair, seq.Repair)
		}
	}
}

// TestComponentErrorSurfacesOverSiblingCancel: when one component solve
// fails, siblings are cancelled; the error returned must be the real
// failure, never the context.Canceled a cancelled sibling reports.
func TestComponentErrorSurfacesOverSiblingCancel(t *testing.T) {
	db := runningex.CorrectDatabase()
	corrupt(t, db, multiErrorDB(t))
	// A negative simplex iteration budget makes every component's LP fail
	// immediately with a real error, racing the sibling cancellation.
	s := &core.MILPSolver{
		Workers: 4,
		Options: milp.MILPOptions{Simplex: milp.SimplexOptions{MaxIters: -1}},
	}
	_, err := core.FindRepair(context.Background(), s, db, runningex.Constraints(), nil)
	if err == nil {
		t.Fatal("expected an error from the crippled simplex")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("sibling cancellation masked the real error: %v", err)
	}
	if !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestCallerCancelStillSurfaces: when the caller's own context is
// cancelled, that cancellation is what comes back (not swallowed by the
// deterministic error selection).
func TestCallerCancelStillSurfaces(t *testing.T) {
	db := runningex.CorrectDatabase()
	corrupt(t, db, multiErrorDB(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prob, err := core.Prepare(db, runningex.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	_, err = (&core.MILPSolver{Workers: 2}).SolveProblem(ctx, prob, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
