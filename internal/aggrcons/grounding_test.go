package aggrcons_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dart/internal/aggrcons"
	"dart/internal/docgen"
	"dart/internal/relational"
	"dart/internal/runningex"
	"dart/internal/scenario"
)

// groundFixture is one database with its constraint set.
type groundFixture struct {
	name string
	db   *relational.Database
	acs  []*aggrcons.Constraint
}

// corruptedFixtures returns the running example and the three scenarios,
// each with 0, 1, 4 and 8 corrupted measure cells over several seeds.
func corruptedFixtures(t *testing.T) []groundFixture {
	t.Helper()
	cash, err := scenario.CashBudget()
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := scenario.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	sheet, err := scenario.BalanceSheet()
	if err != nil {
		t.Fatal(err)
	}
	var out []groundFixture
	for seed := int64(0); seed < 4; seed++ {
		for _, k := range []int{0, 1, 4, 8} {
			rng := rand.New(rand.NewSource(seed))
			for _, fx := range []groundFixture{
				{"running example", runningex.CorrectDatabase(), runningex.Constraints()},
				{"cashbudget", docgen.BudgetDatabase(docgen.RandomBudget(rng, 2000, 3)), cash.Constraints()},
				{"catalog", docgen.OrdersDatabase(docgen.RandomOrders(rng, 6)), catalog.Constraints()},
				{"balancesheet", docgen.BalanceSheetDatabase(docgen.RandomBalanceSheet(rng, 2000, 3)), sheet.Constraints()},
			} {
				corruptMeasures(t, fx.db, k, rng)
				out = append(out, fx)
			}
		}
	}
	return out
}

// corruptMeasures shifts k distinct integer measure cells of db (all of
// them when there are fewer) by a nonzero amount.
func corruptMeasures(t *testing.T, db *relational.Database, k int, rng *rand.Rand) {
	t.Helper()
	type cell struct {
		rel  *relational.Relation
		tp   *relational.Tuple
		attr string
	}
	var cells []cell
	for _, name := range db.RelationNames() {
		rel := db.Relation(name)
		for _, tp := range rel.Tuples() {
			for _, attr := range db.MeasuresOf(name) {
				cells = append(cells, cell{rel, tp, attr})
			}
		}
	}
	for _, i := range rng.Perm(len(cells))[:min(k, len(cells))] {
		c := cells[i]
		shift := int64(1 + rng.Intn(99))
		if rng.Intn(2) == 0 {
			shift = -shift
		}
		if err := c.rel.SetValue(c.tp.ID(), c.attr, relational.Int(c.tp.Get(c.attr).AsInt()+shift)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroundAllMatchesReference holds GroundAll to the reference: the same
// grounds in the same order, with equal keys and arguments.
func TestGroundAllMatchesReference(t *testing.T) {
	fixtures := corruptedFixtures(t)
	joinDB, join := joinFixture(t)
	fixtures = append(fixtures, groundFixture{"join", joinDB, []*aggrcons.Constraint{join}})
	for _, fx := range fixtures {
		for _, k := range fx.acs {
			got, err := k.GroundAll(fx.db)
			if err != nil {
				t.Fatal(err)
			}
			want, err := aggrcons.RefGroundAll(k, fx.db)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d grounds, reference %d", fx.name, k.Name, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Key() != w.Key() || g.Source != w.Source {
					t.Fatalf("%s/%s ground %d: key %q, reference %q", fx.name, k.Name, i, g.Key(), w.Key())
				}
				if !slices.EqualFunc(g.Args, w.Args, slices.Equal[[]relational.Value]) {
					t.Fatalf("%s/%s ground %d: args %v, reference %v", fx.name, k.Name, i, g.Args, w.Args)
				}
			}
		}
	}
}

// TestCheckMatchesReference holds Check, and the grounding it is built
// on, to the reference: the same violated grounds in the same order, with
// bit-equal left-hand sides.
func TestCheckMatchesReference(t *testing.T) {
	violated := 0
	for _, fx := range corruptedFixtures(t) {
		for _, eps := range []float64{1e-9, 1e-6} {
			got, err := aggrcons.Check(fx.db, fx.acs, eps)
			if err != nil {
				t.Fatal(err)
			}
			want, err := aggrcons.RefCheck(fx.db, fx.acs, eps)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d violations, reference %d", fx.name, len(got), len(want))
			}
			for i := range got {
				if got[i].Ground.Key() != want[i].Ground.Key() {
					t.Fatalf("%s violation %d: %s, reference %s", fx.name, i, got[i].Ground.Key(), want[i].Ground.Key())
				}
				if math.Float64bits(got[i].LHS) != math.Float64bits(want[i].LHS) {
					t.Fatalf("%s violation %d: lhs %v, reference %v", fx.name, i, got[i].LHS, want[i].LHS)
				}
			}
			violated += len(got)
		}
	}
	if violated == 0 {
		t.Fatal("no fixture violated any constraint")
	}
}

// TestGroundingTuplesMatchEvaluator checks that the grounding stores, for
// every call of every ground, the tuples a fresh Evaluator returns.
func TestGroundingTuplesMatchEvaluator(t *testing.T) {
	for _, fx := range corruptedFixtures(t)[:8] {
		g, err := aggrcons.NewGrounding(fx.db, fx.acs)
		if err != nil {
			t.Fatal(err)
		}
		if g.Database() != fx.db || !slices.Equal(g.Constraints(), fx.acs) {
			t.Fatalf("%s: grounding does not report its database and constraints", fx.name)
		}
		ev := aggrcons.NewEvaluator(fx.db)
		for ki, k := range fx.acs {
			for gi, gr := range g.Grounds(ki) {
				for ci, call := range k.Calls {
					want, err := ev.Tuples(call.Func, gr.Args[ci])
					if err != nil {
						t.Fatal(err)
					}
					if !sameTuples(g.Tuples(ki, gi, ci), want) {
						t.Fatalf("%s: %s ground %d call %d: tuples differ", fx.name, k.Name, gi, ci)
					}
				}
			}
		}
	}
}

// TestGroundingValidatesEveryConstraint checks that NewGrounding rejects a
// constraint set with an invalid constraint, as Check always did.
func TestGroundingValidatesEveryConstraint(t *testing.T) {
	acs := runningex.Constraints()
	bad := &aggrcons.Constraint{Name: "bad", Body: []aggrcons.Atom{{Relation: "Nope"}}}
	if _, err := aggrcons.NewGrounding(runningex.AcquiredDatabase(), append(acs, bad)); err == nil {
		t.Fatal("NewGrounding accepted a constraint over an unknown relation")
	}
	if _, err := aggrcons.Check(runningex.AcquiredDatabase(), append(acs, bad), 1e-9); err == nil {
		t.Fatal("Check accepted a constraint over an unknown relation")
	}
}
