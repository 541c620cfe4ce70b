package core_test

import (
	"context"
	"math/rand"
	"testing"

	"dart/internal/core"
	"dart/internal/docgen"
	"dart/internal/milp"
	"dart/internal/relational"
	"dart/internal/runningex"
)

// FuzzSolversAgree is the semantic cross-check of the one-shot entry
// point: on a small generated cash budget with 1–3 corrupted cells, the
// MILP solver and the exact cardinality search must both reach an optimum
// of the same cardinality, and the MILP repair must restore consistency.
// The seeded corpus runs under plain go test; go test -fuzz explores more.
func FuzzSolversAgree(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(seed))
	}
	acs := runningex.Constraints()
	f.Fuzz(func(t *testing.T, seed int64, yearsIn, errsIn uint8) {
		rng := rand.New(rand.NewSource(seed))
		db := docgen.BudgetDatabase(docgen.RandomBudget(rng, 2000, 2+int(yearsIn%2)))
		rel := db.Relation("CashBudget")
		tuples := rel.Tuples()
		for _, pi := range rng.Perm(len(tuples))[:1+int(errsIn%3)] {
			tp := tuples[pi]
			nv := tp.Get("Value").AsInt() + int64(10*(1+rng.Intn(50)))
			if err := rel.SetValue(tp.ID(), "Value", relational.Int(nv)); err != nil {
				t.Fatal(err)
			}
		}

		ctx := context.Background()
		mres, err := core.FindRepair(ctx, &core.MILPSolver{}, db, acs, nil)
		if err != nil {
			t.Fatalf("milp: %v", err)
		}
		cres, err := core.FindRepair(ctx, &core.CardinalitySearchSolver{}, db, acs, nil)
		if err != nil {
			t.Fatalf("card-search: %v", err)
		}
		if mres.Status != milp.StatusOptimal || cres.Status != milp.StatusOptimal {
			t.Fatalf("statuses milp=%v card-search=%v", mres.Status, cres.Status)
		}
		if mres.Card != cres.Card {
			t.Fatalf("card milp=%d card-search=%d\nmilp repair:\n%s\ncard-search repair:\n%s",
				mres.Card, cres.Card, mres.Repair, cres.Repair)
		}
		prob, err := core.Prepare(db, acs)
		if err != nil {
			t.Fatal(err)
		}
		if err := prob.VerifyRepair(mres.Repair, 1e-6); err != nil {
			t.Fatalf("milp repair rejected: %v", err)
		}
	})
}
