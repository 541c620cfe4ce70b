package core

import (
	"context"
	"errors"
	"testing"

	"dart/internal/runningex"
)

// TestFindRepairPreCancelled: a cancelled context is rejected before
// grounding for every solver, and the MILP solver's per-node poll aborts a
// solve of an already prepared problem with context.Canceled.
func TestFindRepairPreCancelled(t *testing.T) {
	db := runningex.AcquiredDatabase()
	acs := runningex.Constraints()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range []Solver{&MILPSolver{}, &CardinalitySearchSolver{}, &GreedyLocalSolver{}, &GreedyAggregateSolver{}} {
		if _, err := FindRepair(ctx, s, db, acs, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", s.Name(), err)
		}
	}
	prob, err := Prepare(db, acs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&MILPSolver{}).SolveProblem(ctx, prob, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("prepared MILP solve err = %v, want context.Canceled", err)
	}
}

// TestFindRepairDispatch: under a live context the entry point prepares
// and solves to completion for exact and heuristic solvers alike.
func TestFindRepairDispatch(t *testing.T) {
	db := runningex.AcquiredDatabase()
	acs := runningex.Constraints()
	res, err := FindRepair(context.Background(), &MILPSolver{}, db, acs, nil)
	if err != nil || res.Card != 1 {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
	if _, err := FindRepair(context.Background(), &CardinalitySearchSolver{}, db, acs, nil); err != nil {
		t.Fatalf("cardsearch err = %v", err)
	}
}
