package core_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dart/internal/aggrcons"
	"dart/internal/core"
	"dart/internal/docgen"
	"dart/internal/milp"
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

// sameBits reports whether two floats have the same bits.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameSystem fails the test unless got equals want: the same items, bit-
// equal values, the same domains and item index, and row by row the same
// name, item indexes, coefficients (bit-equal), relation, right-hand side
// (bit-equal) and ground.
func sameSystem(t *testing.T, what string, got, want *core.System) {
	t.Helper()
	if !slices.Equal(got.Items, want.Items) {
		t.Fatalf("%s: items %v, reference %v", what, got.Items, want.Items)
	}
	if !slices.EqualFunc(got.V, want.V, sameBits) {
		t.Fatalf("%s: values %v, reference %v", what, got.V, want.V)
	}
	if !slices.Equal(got.Domains, want.Domains) {
		t.Fatalf("%s: domains %v, reference %v", what, got.Domains, want.Domains)
	}
	for i, it := range want.Items {
		if got.IndexOf(it) != i {
			t.Fatalf("%s: IndexOf(%s) = %d, want %d", what, it, got.IndexOf(it), i)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, reference %d", what, len(got.Rows), len(want.Rows))
	}
	for i, g := range got.Rows {
		w := want.Rows[i]
		if g.Name != w.Name || g.Rel != w.Rel || math.Float64bits(g.RHS) != math.Float64bits(w.RHS) {
			t.Fatalf("%s row %d: %s %v %v, reference %s %v %v", what, i, g.Name, g.Rel, g.RHS, w.Name, w.Rel, w.RHS)
		}
		if !slices.Equal(g.Idx, w.Idx) || !slices.EqualFunc(g.Coeffs, w.Coeffs, sameBits) {
			t.Fatalf("%s row %s: terms %v %v, reference %v %v", what, g.Name, g.Idx, g.Coeffs, w.Idx, w.Coeffs)
		}
		if (g.Ground == nil) != (w.Ground == nil) || g.Ground != nil && g.Ground.Key() != w.Ground.Key() {
			t.Fatalf("%s row %s: ground differs from the reference", what, g.Name)
		}
	}
}

// TestBuildSystemMatchesReference holds the translation to the reference
// BuildSystem and Split: BuildSystem, and Prepare from a grounding built
// once, yield the reference's system and components exactly.
func TestBuildSystemMatchesReference(t *testing.T) {
	fixtures := corruptedFixtures(t)
	db, acs := planVsActualDB(t)
	fixtures = append(fixtures, groundFixture{"plan vs actual", db, acs})
	rows := 0
	for _, fx := range fixtures {
		want, err := core.RefBuildSystem(fx.db, fx.acs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.BuildSystem(fx.db, fx.acs)
		if err != nil {
			t.Fatal(err)
		}
		sameSystem(t, fx.name+" BuildSystem", got, want)
		g, err := aggrcons.NewGrounding(fx.db, fx.acs)
		if err != nil {
			t.Fatal(err)
		}
		prob, err := core.PrepareGrounded(g)
		if err != nil {
			t.Fatal(err)
		}
		sameSystem(t, fx.name+" PrepareGrounded", prob.System(), want)
		comps, refComps := prob.Components(), core.RefSplit(want)
		if len(comps) != len(refComps) {
			t.Fatalf("%s: %d components, reference %d", fx.name, len(comps), len(refComps))
		}
		for i := range comps {
			sameSystem(t, fx.name+" component", comps[i], refComps[i])
		}
		rows += len(got.Rows)
	}
	if rows == 0 {
		t.Fatal("no fixture produced a row")
	}
}

// TestPrepareGroundedRejectsNonSteady checks that a grounding of a
// non-steady constraint set, which Check accepts, is not translated.
func TestPrepareGroundedRejectsNonSteady(t *testing.T) {
	db := runningex.AcquiredDatabase()
	chi := &aggrcons.AggFunc{
		Name: "bad", Relation: "CashBudget", Params: []string{"x"},
		Expr:  aggrcons.AttrTerm("Value"),
		Where: aggrcons.Cmp{L: aggrcons.OpAttr("Value"), Op: aggrcons.CmpGT, R: aggrcons.OpParam(0)},
	}
	acs := []*aggrcons.Constraint{{
		Name: "nonsteady",
		Body: []aggrcons.Atom{{Relation: "CashBudget", Args: []aggrcons.ArgTerm{
			aggrcons.VarArg("x"), aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard()}}},
		Calls: []aggrcons.AggCall{{Coeff: 1, Func: chi, Args: []aggrcons.ArgTerm{aggrcons.VarArg("x")}}},
		Rel:   aggrcons.LE, K: 1000,
	}}
	g, err := aggrcons.NewGrounding(db, acs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.PrepareGrounded(g); err == nil {
		t.Fatal("PrepareGrounded translated a non-steady constraint")
	}
	if _, err := core.Prepare(db, acs); err == nil {
		t.Fatal("Prepare translated a non-steady constraint")
	}
}

// sameDatabase reports whether a and b hold the same relations with the
// same tuples, identifiers and values in the same order.
func sameDatabase(a, b *relational.Database) bool {
	if !slices.Equal(a.RelationNames(), b.RelationNames()) {
		return false
	}
	for _, name := range a.RelationNames() {
		ta, tb := a.Relation(name).Tuples(), b.Relation(name).Tuples()
		if len(ta) != len(tb) {
			return false
		}
		for i := range ta {
			if ta[i].ID() != tb[i].ID() || !slices.Equal(ta[i].Values(), tb[i].Values()) {
				return false
			}
		}
	}
	return true
}

// FuzzRowVerifyMatchesDatabase holds the run-time repair check,
// Problem.Repaired, to the database-level oracle VerifyRepairs at
// tolerance 1e-6. On a 2–3-year budget with 1–3 corrupted cells, the
// candidate repair is the solver's optimum or an edit of it decoded from
// ops: wrong values, no-ops, duplicate items, non-measure items, unknown
// tuples, Real values on Z items and dropped updates. Both checks must
// accept or both reject, and when both accept the repaired databases must
// be equal. Every value is an integer, so both paths sum exactly and no
// verdict falls on a rounding edge.
func FuzzRowVerifyMatchesDatabase(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(0), []byte{})
	for kind := byte(0); kind < 8; kind++ {
		f.Add(int64(kind), uint8(kind), uint8(kind), []byte{kind, 3 * kind, 7})
	}
	f.Add(int64(11), uint8(1), uint8(2), []byte{1, 5, 0, 2, 0, 0, 6, 1, 9})
	acs := runningex.Constraints()
	f.Fuzz(func(t *testing.T, seed int64, yearsIn, errsIn uint8, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		db := docgen.BudgetDatabase(docgen.RandomBudget(rng, 2000, 2+int(yearsIn%2)))
		rel := db.Relation("CashBudget")
		tuples := rel.Tuples()
		for _, pi := range rng.Perm(len(tuples))[:1+int(errsIn%3)] {
			tp := tuples[pi]
			if err := rel.SetValue(tp.ID(), "Value", relational.Int(tp.Get("Value").AsInt()+int64(10*(1+rng.Intn(50))))); err != nil {
				t.Fatal(err)
			}
		}
		prob, err := core.Prepare(db, acs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&core.MILPSolver{}).SolveProblem(context.Background(), prob, nil)
		if err != nil || res.Status != milp.StatusOptimal {
			t.Fatalf("solve: %v (status %v)", err, res.Status)
		}
		rep := &core.Repair{Updates: slices.Clone(res.Repair.Updates)}
		for len(ops) >= 3 {
			kind, pick, delta := ops[0], int(ops[1]), int64(int8(ops[2]))
			ops = ops[3:]
			tp := tuples[pick%len(tuples)]
			it := core.Item{Relation: "CashBudget", TupleID: tp.ID(), Attr: "Value"}
			cur := tp.Get("Value")
			switch kind % 8 {
			case 0: // a wrong value
				rep.Updates = append(rep.Updates, core.Update{Item: it, Old: cur, New: relational.Int(cur.AsInt() + delta)})
			case 1: // a no-op
				rep.Updates = append(rep.Updates, core.Update{Item: it, Old: cur, New: cur})
			case 2: // a duplicate item
				if len(rep.Updates) > 0 {
					u := rep.Updates[pick%len(rep.Updates)]
					u.New = relational.Int(u.New.AsInt() + delta)
					rep.Updates = append(rep.Updates, u)
				}
			case 3: // a non-measure item
				it.Attr = "Year"
				rep.Updates = append(rep.Updates, core.Update{Item: it, Old: tp.Get("Year"), New: relational.Int(tp.Get("Year").AsInt() + delta)})
			case 4: // an unknown tuple
				it.TupleID = 1 << 20
				rep.Updates = append(rep.Updates, core.Update{Item: it, Old: cur, New: relational.Int(cur.AsInt() + delta)})
			case 5: // a Real value on a Z item
				rep.Updates = append(rep.Updates, core.Update{Item: it, Old: cur, New: relational.Real(float64(cur.AsInt() + delta))})
			case 6: // a dropped update
				if len(rep.Updates) > 0 {
					rep.Updates = slices.Delete(rep.Updates, pick%len(rep.Updates), pick%len(rep.Updates)+1)
				}
			case 7: // another value for an update
				if len(rep.Updates) > 0 {
					u := &rep.Updates[pick%len(rep.Updates)]
					u.New = relational.Int(u.New.AsInt() + delta)
				}
			}
		}
		before := db.Clone()
		byRows, rowErr := prob.Repaired(rep)
		byDB, dbErr := core.VerifyRepairs(db, acs, rep, 1e-6)
		if (rowErr == nil) != (dbErr == nil) {
			t.Fatalf("row check: %v; database check: %v\nrepair: %s", rowErr, dbErr, rep)
		}
		if rowErr == nil && !sameDatabase(byRows, byDB) {
			t.Fatalf("repaired databases differ\nrepair: %s", rep)
		}
		if rowErr != nil && slices.Equal(rep.Updates, res.Repair.Updates) {
			t.Fatalf("the solver's optimum was rejected: %v", rowErr)
		}
		if !sameDatabase(db, before) {
			t.Fatal("a check mutated the input database")
		}
	})
}
