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

// TestFindRepairReproducible: two repairs of the multi-error running
// example explore the same branch-and-bound nodes and LP iterations and
// return the same repair.
func TestFindRepairReproducible(t *testing.T) {
	run := func() *core.Result {
		t.Helper()
		db := runningex.CorrectDatabase()
		corrupt(t, db, multiErrorDB(t))
		res, err := core.FindRepair(context.Background(), &core.MILPSolver{}, db, runningex.Constraints(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != milp.StatusOptimal {
			t.Fatalf("status %v", res.Status)
		}
		return res
	}
	first := run()
	for i := 0; i < 10; i++ {
		again := run()
		if again.Nodes != first.Nodes || again.Iterations != first.Iterations {
			t.Fatalf("run %d: nodes/iterations %d/%d, first run %d/%d",
				i, again.Nodes, again.Iterations, first.Nodes, first.Iterations)
		}
		if again.Repair.String() != first.Repair.String() {
			t.Fatalf("run %d: repair %v, first run %v", i, again.Repair, first.Repair)
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
