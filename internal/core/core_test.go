package core_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dart/internal/aggrcons"
	"dart/internal/consparse"
	"dart/internal/core"
	"dart/internal/milp"
	"dart/internal/relational"
	"dart/internal/runningex"
)

func findItem(t *testing.T, db *relational.Database, year int64, sub string) core.Item {
	t.Helper()
	r := db.Relation("CashBudget")
	for _, tp := range r.Tuples() {
		if tp.Get("Year") == relational.Int(year) && tp.Get("Subsection") == relational.String(sub) {
			return core.Item{Relation: "CashBudget", TupleID: tp.ID(), Attr: "Value"}
		}
	}
	t.Fatalf("no tuple for %d/%s", year, sub)
	return core.Item{}
}

// --- System construction (Example 10) -----------------------------------

func TestBuildSystemRunningExample(t *testing.T) {
	db := runningex.AcquiredDatabase()
	sys, err := core.BuildSystem(db, runningex.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	// Example 10: N = 20 (all tuples involved), and the translation yields
	// 4 + 2 + 2 = 8 equality rows.
	if sys.N() != 20 {
		t.Errorf("N = %d, want 20", sys.N())
	}
	if len(sys.Rows) != 8 {
		t.Errorf("rows = %d, want 8", len(sys.Rows))
	}
	// z2 is cash sales 2003 with v2 = 100 (Example 10).
	if sys.V[1] != 100 {
		t.Errorf("v2 = %v, want 100", sys.V[1])
	}
	// The Constraint1 row for (Receipts, 2003) must read z2 + z3 - z4 = 0.
	found := false
	for _, row := range sys.Rows {
		if slices.Equal(row.Idx, []int{1, 2, 3}) && slices.Equal(row.Coeffs, []float64{1, 1, -1}) && row.RHS == 0 && row.Rel == aggrcons.EQ {
			found = true
		}
	}
	if !found {
		t.Errorf("missing row z2+z3-z4=0 in %+v", sys.Rows)
	}
}

func TestBuildSystemRejectsNonSteady(t *testing.T) {
	// A constraint whose WHERE references the measure attribute.
	db := runningex.AcquiredDatabase()
	chi := &aggrcons.AggFunc{
		Name: "bad", Relation: "CashBudget", Params: []string{"x"},
		Expr:  aggrcons.AttrTerm("Value"),
		Where: aggrcons.Cmp{L: aggrcons.OpAttr("Value"), Op: aggrcons.CmpGT, R: aggrcons.OpParam(0)},
	}
	k := &aggrcons.Constraint{
		Name: "nonsteady",
		Body: []aggrcons.Atom{{Relation: "CashBudget", Args: []aggrcons.ArgTerm{
			aggrcons.VarArg("x"), aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard()}}},
		Calls: []aggrcons.AggCall{{Coeff: 1, Func: chi, Args: []aggrcons.ArgTerm{aggrcons.VarArg("x")}}},
		Rel:   aggrcons.LE, K: 1000,
	}
	if _, err := core.BuildSystem(db, []*aggrcons.Constraint{k}); err == nil {
		t.Error("non-steady constraint must be rejected")
	} else if !strings.Contains(err.Error(), "not steady") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestSystemOccurrences(t *testing.T) {
	db := runningex.AcquiredDatabase()
	sys, err := core.BuildSystem(db, runningex.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	occ := sys.Occurrences()
	// total cash receipts 2003 (z4, index 3) occurs in Constraint1 and
	// Constraint2 rows; cash sales (index 1) only in Constraint1.
	if occ[3] != 2 {
		t.Errorf("occ[z4] = %d, want 2", occ[3])
	}
	if occ[1] != 1 {
		t.Errorf("occ[z2] = %d, want 1", occ[1])
	}
}

func TestTheoreticalMOverflows(t *testing.T) {
	// The paper's M = n*(ma)^(2m+1) with m=28, a=250 for the running
	// example (Example 11 quotes 20*(28*250)^57): log10 must be ~220+,
	// far beyond float64 representability of the literal value? No:
	// 10^220 < 1.8e308, so it IS representable for the running example but
	// astronomically larger than any useful bound; larger corpora overflow.
	db := runningex.AcquiredDatabase()
	sys, err := core.BuildSystem(db, runningex.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	log10M, representable := sys.TheoreticalMLog10()
	if log10M < 200 || log10M > 260 {
		t.Errorf("log10(M) = %v, want around 220 for the running example", log10M)
	}
	if !representable {
		t.Error("running-example M should still fit float64")
	}
	if sys.PracticalM() > 1e5 {
		t.Errorf("practical M = %v unexpectedly large", sys.PracticalM())
	}
}

// --- Compilation (Fig. 4 / Example 11) -----------------------------------

func TestCompileLiteralShape(t *testing.T) {
	db := runningex.AcquiredDatabase()
	sys, err := core.BuildSystem(db, runningex.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compile(sys, core.CompileOptions{Formulation: core.FormulationLiteral})
	if err != nil {
		t.Fatal(err)
	}
	// Eq. (8): variables z_i, y_i, delta_i -> 3N; rows: 8 translated
	// constraints + N displacement definitions + 2N indicator rows, plus 2
	// cover cuts for the two violated ground rows.
	if got := comp.Model.NumVars(); got != 60 {
		t.Errorf("vars = %d, want 60", got)
	}
	if got := comp.Model.NumConstraints(); got != 8+20+40+2 {
		t.Errorf("rows = %d, want 70", got)
	}
	text := comp.FormatProblem()
	for _, want := range []string{"min sum(d1..d20)", "z2 + z3 - z4 = 0", "y4", "d4"} {
		if !strings.Contains(text, want) {
			t.Errorf("FormatProblem missing %q", want)
		}
	}
}

func TestCompileReducedShape(t *testing.T) {
	db := runningex.AcquiredDatabase()
	sys, err := core.BuildSystem(db, runningex.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.Compile(sys, core.CompileOptions{Formulation: core.FormulationReduced})
	if err != nil {
		t.Fatal(err)
	}
	if got := comp.Model.NumVars(); got != 40 {
		t.Errorf("vars = %d, want 40", got)
	}
	if got := comp.Model.NumConstraints(); got != 8+40+2 {
		t.Errorf("rows = %d, want 50", got)
	}
	plain, err := core.Compile(sys, core.CompileOptions{Formulation: core.FormulationReduced, DisableCoverCuts: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.Model.NumConstraints(); got != 8+40 {
		t.Errorf("rows without cuts = %d, want 48", got)
	}
}

// --- Example 11: the card-minimal repair ---------------------------------

func TestExample11MILPRepair(t *testing.T) {
	for _, form := range []core.Formulation{core.FormulationLiteral, core.FormulationReduced} {
		solver := &core.MILPSolver{Formulation: form}
		db := runningex.AcquiredDatabase()
		res, err := core.FindRepair(context.Background(), solver, db, runningex.Constraints(), nil)
		if err != nil {
			t.Fatalf("%s: %v", form, err)
		}
		if res.Status != milp.StatusOptimal {
			t.Fatalf("%s: status %v", form, res.Status)
		}
		// Example 11: the objective minimum is 1 (only delta_4 = 1) and the
		// unique optimum sets y4 = -30: total cash receipts 2003 250 -> 220.
		if res.Card != 1 {
			t.Fatalf("%s: card = %d, want 1 (repair: %v)", form, res.Card, res.Repair)
		}
		u := res.Repair.Updates[0]
		wantItem := findItem(t, db, 2003, "total cash receipts")
		if u.Item != wantItem || u.Old != relational.Int(250) || u.New != relational.Int(220) {
			t.Errorf("%s: repair = %v, want %v: 250 -> 220", form, u, wantItem)
		}
	}
}

func TestExample11CardinalitySearch(t *testing.T) {
	solver := &core.CardinalitySearchSolver{}
	db := runningex.AcquiredDatabase()
	res, err := core.FindRepair(context.Background(), solver, db, runningex.Constraints(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal || res.Card != 1 {
		t.Fatalf("status %v card %d, want optimal card 1", res.Status, res.Card)
	}
	u := res.Repair.Updates[0]
	if u.New != relational.Int(220) {
		t.Errorf("repair = %v, want 250 -> 220", u)
	}
}

func TestConsistentDatabaseYieldsEmptyRepair(t *testing.T) {
	for _, solver := range []core.Solver{
		&core.MILPSolver{},
		&core.CardinalitySearchSolver{},
		&core.GreedyLocalSolver{},
		&core.GreedyAggregateSolver{},
	} {
		db := runningex.CorrectDatabase()
		res, err := core.FindRepair(context.Background(), solver, db, runningex.Constraints(), nil)
		if err != nil {
			t.Fatalf("%s: %v", solver.Name(), err)
		}
		if res.Status != milp.StatusOptimal || res.Card != 0 {
			t.Errorf("%s: status %v card %d, want optimal card 0", solver.Name(), res.Status, res.Card)
		}
	}
}

// --- Examples 6-8: repairs and card-minimality ---------------------------

func TestRepairApplyAndValidate(t *testing.T) {
	db := runningex.AcquiredDatabase()
	item := findItem(t, db, 2003, "total cash receipts")
	rho := &core.Repair{Updates: []core.Update{{Item: item, Old: relational.Int(250), New: relational.Int(220)}}}
	if rho.Card() != 1 {
		t.Errorf("Card = %d", rho.Card())
	}
	repaired, err := core.VerifyRepairs(db, runningex.Constraints(), rho, 1e-9)
	if err != nil {
		t.Fatalf("Example 6's repair must verify: %v", err)
	}
	if repaired.Relation("CashBudget").TupleByID(item.TupleID).Get("Value") != relational.Int(220) {
		t.Error("repair not applied")
	}
	// Original untouched.
	if db.Relation("CashBudget").TupleByID(item.TupleID).Get("Value") != relational.Int(250) {
		t.Error("VerifyRepairs mutated the input database")
	}
}

func TestExample7AlternativeRepair(t *testing.T) {
	// rho' = {cash sales 2003 -> 130, long-term financing 2003 -> 70,
	// total disbursements 2003 -> 190} is also a repair (card 3).
	db := runningex.AcquiredDatabase()
	rho := &core.Repair{Updates: []core.Update{
		{Item: findItem(t, db, 2003, "cash sales"), Old: relational.Int(100), New: relational.Int(130)},
		{Item: findItem(t, db, 2003, "long-term financing"), Old: relational.Int(40), New: relational.Int(70)},
		{Item: findItem(t, db, 2003, "total disbursements"), Old: relational.Int(160), New: relational.Int(190)},
	}}
	if _, err := core.VerifyRepairs(db, runningex.Constraints(), rho, 1e-9); err != nil {
		t.Fatalf("Example 7's repair must verify: %v", err)
	}
	if rho.Card() != 3 {
		t.Errorf("Card = %d, want 3", rho.Card())
	}
}

func TestRepairValidateRejectsBadRepairs(t *testing.T) {
	db := runningex.AcquiredDatabase()
	item := findItem(t, db, 2003, "total cash receipts")
	dup := &core.Repair{Updates: []core.Update{
		{Item: item, Old: relational.Int(250), New: relational.Int(220)},
		{Item: item, Old: relational.Int(250), New: relational.Int(230)},
	}}
	if err := dup.Validate(db); err == nil {
		t.Error("duplicate lambda(u) must be rejected (Definition 3)")
	}
	noop := &core.Repair{Updates: []core.Update{{Item: item, Old: relational.Int(250), New: relational.Int(250)}}}
	if err := noop.Validate(db); err == nil {
		t.Error("no-op update must be rejected (Definition 2 requires v' != v)")
	}
	nonMeasure := &core.Repair{Updates: []core.Update{{
		Item: core.Item{Relation: "CashBudget", TupleID: item.TupleID, Attr: "Year"},
		Old:  relational.Int(2003), New: relational.Int(2005)}}}
	if err := nonMeasure.Validate(db); err == nil {
		t.Error("updates must stay within measure attributes")
	}
	missing := &core.Repair{Updates: []core.Update{{
		Item: core.Item{Relation: "CashBudget", TupleID: 999, Attr: "Value"},
		Old:  relational.Int(0), New: relational.Int(1)}}}
	if err := missing.Validate(db); err == nil {
		t.Error("missing tuple must be rejected")
	}
	badRel := &core.Repair{Updates: []core.Update{{
		Item: core.Item{Relation: "Nope", TupleID: 0, Attr: "Value"},
		Old:  relational.Int(0), New: relational.Int(1)}}}
	if err := badRel.Validate(db); err == nil {
		t.Error("missing relation must be rejected")
	}
	notARepair := &core.Repair{Updates: []core.Update{{Item: item, Old: relational.Int(250), New: relational.Int(240)}}}
	if _, err := core.VerifyRepairs(db, runningex.Constraints(), notARepair, 1e-9); err == nil {
		t.Error("a non-consistency-restoring update set must fail verification")
	}
}

// --- Multi-error repairs and solver agreement ----------------------------

// corrupt applies value perturbations to the given (year, subsection) cells.
func corrupt(t *testing.T, db *relational.Database, changes map[[2]string]int64) {
	t.Helper()
	r := db.Relation("CashBudget")
	for k, nv := range changes {
		found := false
		for _, tp := range r.Tuples() {
			if tp.Get("Year").String() == k[0] && tp.Get("Subsection") == relational.String(k[1]) {
				if err := r.SetValue(tp.ID(), "Value", relational.Int(nv)); err != nil {
					t.Fatal(err)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("no cell %v", k)
		}
	}
}

func TestTwoErrorRepairSolversAgreeOnCardinality(t *testing.T) {
	db := runningex.CorrectDatabase()
	corrupt(t, db, map[[2]string]int64{
		{"2003", "total cash receipts"}: 250, // as in the paper
		{"2004", "capital expenditure"}: 45,  // second, independent error
	})
	milpRes, err := core.FindRepair(context.Background(), &core.MILPSolver{}, db, runningex.Constraints(), nil)
	if err != nil {
		t.Fatal(err)
	}
	csRes, err := core.FindRepair(context.Background(), &core.CardinalitySearchSolver{}, db, runningex.Constraints(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if milpRes.Status != milp.StatusOptimal || csRes.Status != milp.StatusOptimal {
		t.Fatalf("statuses %v / %v", milpRes.Status, csRes.Status)
	}
	if milpRes.Card != 2 || csRes.Card != 2 {
		t.Errorf("cards = %d / %d, want 2 / 2", milpRes.Card, csRes.Card)
	}
}

func TestForcedValuesDriveAlternativeRepairs(t *testing.T) {
	// The operator rejects the suggested tcr=220 update and pins tcr to its
	// acquired value 250 (pretending the document really says 250): the
	// solver must find a repair that keeps z4 = 250.
	db := runningex.AcquiredDatabase()
	item := findItem(t, db, 2003, "total cash receipts")
	forced := map[core.Item]float64{item: 250}
	for _, solver := range []core.Solver{&core.MILPSolver{}, &core.CardinalitySearchSolver{}} {
		res, err := core.FindRepair(context.Background(), solver, db, runningex.Constraints(), forced)
		if err != nil {
			t.Fatalf("%s: %v", solver.Name(), err)
		}
		if res.Status != milp.StatusOptimal {
			t.Fatalf("%s: status %v", solver.Name(), res.Status)
		}
		for _, u := range res.Repair.Updates {
			if u.Item == item {
				t.Errorf("%s: repair touched the pinned item: %v", solver.Name(), u)
			}
		}
		// With tcr pinned to 250 the receipts section must absorb +30 and
		// the balance section must re-derive: at least 2 changes.
		if res.Card < 2 {
			t.Errorf("%s: card = %d, want >= 2", solver.Name(), res.Card)
		}
	}
}

func TestGreedyBaselinesRepairButNotMinimally(t *testing.T) {
	db := runningex.AcquiredDatabase()
	agg, err := core.FindRepair(context.Background(), &core.GreedyAggregateSolver{}, db, runningex.Constraints(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Status != milp.StatusOptimal {
		t.Fatalf("greedy-aggregate did not converge: %v", agg.Status)
	}
	// Recomputing aggregates blames tcr (the truly wrong cell) here, so it
	// happens to be minimal on the running example.
	if agg.Card < 1 {
		t.Errorf("greedy-aggregate card = %d", agg.Card)
	}
	loc, err := core.FindRepair(context.Background(), &core.GreedyLocalSolver{}, db, runningex.Constraints(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Status != milp.StatusOptimal {
		t.Fatalf("greedy-local did not converge: %v", loc.Status)
	}
	// On this instance greedy-local oscillates through cash sales before
	// settling; it still produces a valid repair. (Its non-minimality on
	// wider corpora is measured by experiment E6.)
	if loc.Card < 1 {
		t.Errorf("greedy-local card = %d", loc.Card)
	}
}

func TestItemAndUpdateStrings(t *testing.T) {
	it := core.Item{Relation: "CashBudget", TupleID: 3, Attr: "Value"}
	if it.String() != "CashBudget[3].Value" {
		t.Errorf("Item.String = %q", it.String())
	}
	u := core.Update{Item: it, Old: relational.Int(250), New: relational.Int(220)}
	if u.String() != "CashBudget[3].Value: 250 -> 220" {
		t.Errorf("Update.String = %q", u.String())
	}
	r := &core.Repair{Updates: []core.Update{u}}
	if !strings.Contains(r.String(), "250 -> 220") {
		t.Errorf("Repair.String = %q", r.String())
	}
	empty := &core.Repair{}
	if empty.String() != "{}" {
		t.Errorf("empty Repair.String = %q", empty.String())
	}
}

func TestFormulationEquivalenceOnPerturbations(t *testing.T) {
	// Literal and reduced formulations must agree on the optimum for a
	// range of corruptions.
	cases := []map[[2]string]int64{
		{{"2003", "cash sales"}: 700},
		{{"2004", "ending cash balance"}: 5},
		{{"2003", "beginning cash"}: 50, {"2004", "receivables"}: 130},
		{{"2003", "net cash inflow"}: 90, {"2003", "ending cash balance"}: 110},
	}
	for i, ch := range cases {
		dbL := runningex.CorrectDatabase()
		corrupt(t, dbL, ch)
		lit, err := core.FindRepair(context.Background(), &core.MILPSolver{Formulation: core.FormulationLiteral}, dbL, runningex.Constraints(), nil)
		if err != nil {
			t.Fatalf("case %d literal: %v", i, err)
		}
		red, err := core.FindRepair(context.Background(), &core.MILPSolver{Formulation: core.FormulationReduced}, dbL, runningex.Constraints(), nil)
		if err != nil {
			t.Fatalf("case %d reduced: %v", i, err)
		}
		cs, err := core.FindRepair(context.Background(), &core.CardinalitySearchSolver{}, dbL, runningex.Constraints(), nil)
		if err != nil {
			t.Fatalf("case %d card-search: %v", i, err)
		}
		if lit.Card != red.Card || lit.Card != cs.Card {
			t.Errorf("case %d: cards literal=%d reduced=%d search=%d", i, lit.Card, red.Card, cs.Card)
		}
	}
}

func TestPracticalMBinding(t *testing.T) {
	// Force a tiny M: the solver must escalate rather than fail.
	db := runningex.AcquiredDatabase()
	solver := &core.MILPSolver{BigM: 4} // |y4| must reach 30
	res, err := core.FindRepair(context.Background(), solver, db, runningex.Constraints(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal || res.Card != 1 {
		t.Fatalf("status %v card %d", res.Status, res.Card)
	}
	if res.Escalations == 0 {
		t.Error("expected at least one big-M escalation")
	}
	if math.Abs(res.Repair.Updates[0].New.AsFloat()-220) > 1e-9 {
		t.Errorf("repair = %v", res.Repair)
	}
}

// TestRealRowsSumInFixedOrder checks that a Real-domain row reads the same
// in every run: the reduced formulation's right-hand side has the same
// bits and the row check the same verdict each time. The row's constant is
// its left-hand side summed in item order, so the check at tolerance 0
// holds exactly when the terms are summed in that order.
func TestRealRowsSumInFixedOrder(t *testing.T) {
	db := relational.NewDatabase()
	r := db.MustAddRelation(relational.MustSchema("R",
		relational.Attribute{Name: "Name", Domain: relational.DomainString},
		relational.Attribute{Name: "V", Domain: relational.DomainReal},
	))
	if err := db.DesignateMeasure("R", "V"); err != nil {
		t.Fatal(err)
	}
	var calls []string
	lhs := 0.0
	for i := 0; i < 12; i++ {
		name := string(rune('a' + i))
		c, v := 0.1*float64(1+i%3), 1.1*float64(i+1)+0.01
		r.MustInsert(relational.String(name), relational.Real(v))
		calls = append(calls, fmt.Sprintf("%s*f('%s')", strconv.FormatFloat(c, 'g', -1, 64), name))
		lhs += c * v
	}
	src := fmt.Sprintf("func f(n) := SELECT sum(V) FROM R WHERE Name = n\nconstraint k:\n  R(_, _) ==> %s = %s\n",
		strings.Join(calls, " + "), strconv.FormatFloat(lhs, 'g', -1, 64))
	cat, err := consparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := core.Prepare(db, cat.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	if n := prob.N(); n < 8 || len(prob.System().Rows) != 1 {
		t.Fatalf("%d items and %d rows, want at least 8 items in one row", n, len(prob.System().Rows))
	}
	var rhs uint64
	for run := 0; run < 100; run++ {
		comp, err := core.Compile(prob.System(), core.CompileOptions{Formulation: core.FormulationReduced})
		if err != nil {
			t.Fatal(err)
		}
		bits := math.Float64bits(comp.Model.Constraint(0).RHS)
		if run == 0 {
			rhs = bits
		} else if bits != rhs {
			t.Fatalf("run %d: reduced right-hand side %v, first run %v", run, math.Float64frombits(bits), math.Float64frombits(rhs))
		}
		if err := prob.VerifyRepair(&core.Repair{}, 0); err != nil {
			t.Fatalf("run %d: the acquired values fail their own row: %v", run, err)
		}
	}
}
