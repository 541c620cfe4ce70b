package core_test

import (
	"context"
	"testing"

	"dart/internal/core"
	"dart/internal/milp"
	"dart/internal/runningex"
)

// TestPrepareExposesDerivedState checks that a prepared problem carries the
// grounded system plus the decomposition and occurrence counts derived
// from it, identical to computing them directly.
func TestPrepareExposesDerivedState(t *testing.T) {
	db := runningex.AcquiredDatabase()
	acs := runningex.Constraints()
	prob, err := core.Prepare(db, acs)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.BuildSystem(db, acs)
	if err != nil {
		t.Fatal(err)
	}
	if prob.N() != sys.N() {
		t.Errorf("N = %d, want %d", prob.N(), sys.N())
	}
	if got, want := len(prob.Components()), len(sys.Split()); got != want {
		t.Errorf("components = %d, want %d", got, want)
	}
	occ, want := prob.Occurrences(), sys.Occurrences()
	if len(occ) != len(want) {
		t.Fatalf("occurrences len = %d, want %d", len(occ), len(want))
	}
	for i := range occ {
		if occ[i] != want[i] {
			t.Errorf("occ[%d] = %d, want %d", i, occ[i], want[i])
		}
	}
	if prob.Database() != db {
		t.Error("Database() is not the prepared database")
	}
	if st := prob.Stats(); st.ComponentsSolved != 0 || st.ComponentsReused != 0 {
		t.Errorf("fresh problem stats = %+v, want zeros", st)
	}
}

// TestPrepareFailsLikeBuildSystem: Prepare surfaces grounding errors.
func TestPrepareFailsLikeBuildSystem(t *testing.T) {
	db := runningex.AcquiredDatabase()
	if _, err := core.Prepare(db, nil); err != nil {
		t.Errorf("empty constraint set: %v", err)
	}
}

// TestSolveProblemMemoReuse checks the incremental re-solve contract: a
// second solve of the same prepared problem under the same pins is served
// entirely from the memo and returns the identical repair.
func TestSolveProblemMemoReuse(t *testing.T) {
	db := runningex.AcquiredDatabase()
	prob, err := core.Prepare(db, runningex.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	solver := &core.MILPSolver{}
	ctx := context.Background()

	r1, err := solver.SolveProblem(ctx, prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Status != milp.StatusOptimal || r1.Card != 1 {
		t.Fatalf("first solve: status %v card %d", r1.Status, r1.Card)
	}
	st1 := prob.Stats()
	if st1.ComponentsSolved == 0 {
		t.Fatalf("first solve recorded no component work: %+v", st1)
	}
	if st1.ComponentsReused != 0 || r1.ComponentsReused != 0 {
		t.Errorf("first solve claims reuse: stats %+v, result %d", st1, r1.ComponentsReused)
	}

	r2, err := solver.SolveProblem(ctx, prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	st2 := prob.Stats()
	if st2.ComponentsSolved != st1.ComponentsSolved {
		t.Errorf("second solve re-solved components: %+v -> %+v", st1, st2)
	}
	if st2.ComponentsReused != st1.ComponentsSolved {
		t.Errorf("second solve reused %d components, want %d", st2.ComponentsReused, st1.ComponentsSolved)
	}
	if r2.ComponentsReused == 0 {
		t.Error("second result reports no reused components")
	}
	if r1.Repair.String() != r2.Repair.String() {
		t.Errorf("memoized repair differs:\n%s\nvs\n%s", r1.Repair, r2.Repair)
	}

	// New pins on the violated component force a re-solve; identical pins
	// afterwards hit the memo again.
	item := findItem(t, db, 2003, "total cash receipts")
	forced := map[core.Item]float64{item: 250}
	r3, err := solver.SolveProblem(ctx, prob, forced)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Status != milp.StatusOptimal {
		t.Fatalf("pinned solve: status %v", r3.Status)
	}
	st3 := prob.Stats()
	if st3.ComponentsSolved <= st2.ComponentsSolved {
		t.Errorf("pinned solve did not re-solve: %+v -> %+v", st2, st3)
	}
	r4, err := solver.SolveProblem(ctx, prob, map[core.Item]float64{item: 250})
	if err != nil {
		t.Fatal(err)
	}
	if st4 := prob.Stats(); st4.ComponentsSolved != st3.ComponentsSolved {
		t.Errorf("identical pins re-solved: %+v -> %+v", st3, st4)
	}
	if r3.Repair.String() != r4.Repair.String() {
		t.Errorf("memoized pinned repair differs:\n%s\nvs\n%s", r3.Repair, r4.Repair)
	}
}

// TestMemoIsPerSolverConfiguration: two solver configurations never share
// memoized component solves.
func TestMemoIsPerSolverConfiguration(t *testing.T) {
	prob, err := core.Prepare(runningex.AcquiredDatabase(), runningex.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := (&core.MILPSolver{}).SolveProblem(ctx, prob, nil); err != nil {
		t.Fatal(err)
	}
	st1 := prob.Stats()
	// The reduced formulation is a different configuration (the zero value
	// is the literal one): it must solve, not reuse.
	if _, err := (&core.MILPSolver{Formulation: core.FormulationReduced}).SolveProblem(ctx, prob, nil); err != nil {
		t.Fatal(err)
	}
	st2 := prob.Stats()
	if st2.ComponentsSolved <= st1.ComponentsSolved {
		t.Errorf("reduced formulation reused the literal memo: %+v -> %+v", st1, st2)
	}
	if st2.ComponentsReused != st1.ComponentsReused {
		t.Errorf("cross-configuration reuse counted: %+v -> %+v", st1, st2)
	}
}

// TestWarmStartMatchesCold: the warm-start cutoff must not change any
// result. Solve a pin sequence with warm starts enabled and disabled and
// compare every repair.
func TestWarmStartMatchesCold(t *testing.T) {
	db := runningex.AcquiredDatabase()
	acs := runningex.Constraints()
	item := findItem(t, db, 2003, "total cash receipts")
	pinSets := []map[core.Item]float64{
		nil,
		{item: 250},
		{item: 220},
	}
	warmProb, err := core.Prepare(db, acs)
	if err != nil {
		t.Fatal(err)
	}
	coldProb, err := core.Prepare(db, acs)
	if err != nil {
		t.Fatal(err)
	}
	warm := &core.MILPSolver{}
	cold := &core.MILPSolver{DisableWarmStart: true}
	ctx := context.Background()
	for i, pins := range pinSets {
		rw, err := warm.SolveProblem(ctx, warmProb, pins)
		if err != nil {
			t.Fatalf("pins %d warm: %v", i, err)
		}
		rc, err := cold.SolveProblem(ctx, coldProb, pins)
		if err != nil {
			t.Fatalf("pins %d cold: %v", i, err)
		}
		if rw.Status != rc.Status || rw.Card != rc.Card {
			t.Errorf("pins %d: warm %v/%d, cold %v/%d", i, rw.Status, rw.Card, rc.Status, rc.Card)
		}
		if rw.Repair.String() != rc.Repair.String() {
			t.Errorf("pins %d: warm repair\n%s\ncold repair\n%s", i, rw.Repair, rc.Repair)
		}
	}
}

// TestFindRepairShimsMatchSolveProblem: for every solver configuration,
// the one-shot core.FindRepair entry point must equal Prepare +
// SolveProblem.
func TestFindRepairShimsMatchSolveProblem(t *testing.T) {
	db := runningex.AcquiredDatabase()
	acs := runningex.Constraints()
	solvers := []core.Solver{
		&core.MILPSolver{},
		&core.MILPSolver{Formulation: core.FormulationReduced},
		&core.CardinalitySearchSolver{},
		&core.GreedyAggregateSolver{},
		&core.GreedyLocalSolver{},
	}
	for _, s := range solvers {
		oneShot, err := core.FindRepair(context.Background(), s, db, acs, nil)
		if err != nil {
			t.Fatalf("%s one-shot: %v", s.Name(), err)
		}
		prob, err := core.Prepare(db, acs)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := s.SolveProblem(context.Background(), prob, nil)
		if err != nil {
			t.Fatalf("%s direct: %v", s.Name(), err)
		}
		if oneShot.Status != direct.Status || oneShot.Repair.String() != direct.Repair.String() {
			t.Errorf("%s: one-shot %v\n%s\ndirect %v\n%s",
				s.Name(), oneShot.Status, oneShot.Repair, direct.Status, direct.Repair)
		}
	}
}
