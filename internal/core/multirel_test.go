package core_test

import (
	"context"
	"testing"

	"dart/internal/aggrcons"
	"dart/internal/core"
	"dart/internal/milp"
	"dart/internal/relational"
)

// planVsActualDB builds a two-measure scenario: Budget(Dept, Item, Planned,
// Actual) where both Planned and Actual are measure attributes, plus
// DeptTotal(Dept, PlannedTotal, ActualTotal) with its own two measures.
// Constraints tie each department's line sums to its total row —
// a cross-relation steady constraint joining on the non-measure Dept.
func planVsActualDB(t *testing.T) (*relational.Database, []*aggrcons.Constraint) {
	t.Helper()
	db := relational.NewDatabase()
	budget := db.MustAddRelation(relational.MustSchema("Budget",
		relational.Attribute{Name: "Dept", Domain: relational.DomainString},
		relational.Attribute{Name: "Item", Domain: relational.DomainString},
		relational.Attribute{Name: "Planned", Domain: relational.DomainInt},
		relational.Attribute{Name: "Actual", Domain: relational.DomainInt},
	))
	totals := db.MustAddRelation(relational.MustSchema("DeptTotal",
		relational.Attribute{Name: "Dept", Domain: relational.DomainString},
		relational.Attribute{Name: "PlannedTotal", Domain: relational.DomainInt},
		relational.Attribute{Name: "ActualTotal", Domain: relational.DomainInt},
	))
	for _, attr := range []string{"Planned", "Actual"} {
		if err := db.DesignateMeasure("Budget", attr); err != nil {
			t.Fatal(err)
		}
	}
	for _, attr := range []string{"PlannedTotal", "ActualTotal"} {
		if err := db.DesignateMeasure("DeptTotal", attr); err != nil {
			t.Fatal(err)
		}
	}
	budget.MustInsert(relational.String("IT"), relational.String("hardware"), relational.Int(100), relational.Int(110))
	budget.MustInsert(relational.String("IT"), relational.String("software"), relational.Int(200), relational.Int(180))
	budget.MustInsert(relational.String("HR"), relational.String("training"), relational.Int(50), relational.Int(60))
	budget.MustInsert(relational.String("HR"), relational.String("travel"), relational.Int(70), relational.Int(70))
	totals.MustInsert(relational.String("IT"), relational.Int(300), relational.Int(290))
	totals.MustInsert(relational.String("HR"), relational.Int(120), relational.Int(130))

	linePlanned := &aggrcons.AggFunc{
		Name: "linePlanned", Relation: "Budget", Params: []string{"d"},
		Expr:  aggrcons.AttrTerm("Planned"),
		Where: aggrcons.Cmp{L: aggrcons.OpAttr("Dept"), Op: aggrcons.CmpEQ, R: aggrcons.OpParam(0)},
	}
	lineActual := &aggrcons.AggFunc{
		Name: "lineActual", Relation: "Budget", Params: []string{"d"},
		Expr:  aggrcons.AttrTerm("Actual"),
		Where: aggrcons.Cmp{L: aggrcons.OpAttr("Dept"), Op: aggrcons.CmpEQ, R: aggrcons.OpParam(0)},
	}
	totPlanned := &aggrcons.AggFunc{
		Name: "totPlanned", Relation: "DeptTotal", Params: []string{"d"},
		Expr:  aggrcons.AttrTerm("PlannedTotal"),
		Where: aggrcons.Cmp{L: aggrcons.OpAttr("Dept"), Op: aggrcons.CmpEQ, R: aggrcons.OpParam(0)},
	}
	totActual := &aggrcons.AggFunc{
		Name: "totActual", Relation: "DeptTotal", Params: []string{"d"},
		Expr:  aggrcons.AttrTerm("ActualTotal"),
		Where: aggrcons.Cmp{L: aggrcons.OpAttr("Dept"), Op: aggrcons.CmpEQ, R: aggrcons.OpParam(0)},
	}
	// The body joins Budget and DeptTotal on the (non-measure) Dept: d is a
	// join variable, so J contains Budget.Dept and DeptTotal.Dept — both
	// non-measures, so the constraints stay steady.
	body := []aggrcons.Atom{
		{Relation: "Budget", Args: []aggrcons.ArgTerm{
			aggrcons.VarArg("d"), aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard()}},
		{Relation: "DeptTotal", Args: []aggrcons.ArgTerm{
			aggrcons.VarArg("d"), aggrcons.Wildcard(), aggrcons.Wildcard()}},
	}
	acs := []*aggrcons.Constraint{
		{
			Name: "PlannedBalance", Body: body, Rel: aggrcons.EQ, K: 0,
			Calls: []aggrcons.AggCall{
				{Coeff: 1, Func: linePlanned, Args: []aggrcons.ArgTerm{aggrcons.VarArg("d")}},
				{Coeff: -1, Func: totPlanned, Args: []aggrcons.ArgTerm{aggrcons.VarArg("d")}},
			},
		},
		{
			Name: "ActualBalance", Body: body, Rel: aggrcons.EQ, K: 0,
			Calls: []aggrcons.AggCall{
				{Coeff: 1, Func: lineActual, Args: []aggrcons.ArgTerm{aggrcons.VarArg("d")}},
				{Coeff: -1, Func: totActual, Args: []aggrcons.ArgTerm{aggrcons.VarArg("d")}},
			},
		},
	}
	return db, acs
}

func TestMultiRelationSteadiness(t *testing.T) {
	db, acs := planVsActualDB(t)
	for _, k := range acs {
		j := k.JSet(db)
		if len(j) != 2 {
			t.Errorf("%s: J = %v, want {Budget.Dept, DeptTotal.Dept}", k.Name, j)
		}
		if !k.IsSteady(db) {
			t.Errorf("%s must be steady (join variables are non-measures)", k.Name)
		}
	}
}

func TestMultiMeasureSystemShape(t *testing.T) {
	db, acs := planVsActualDB(t)
	sys, err := core.BuildSystem(db, acs)
	if err != nil {
		t.Fatal(err)
	}
	// Every tuple contributes two measure values: 4*2 + 2*2 = 12.
	if sys.N() != 12 {
		t.Errorf("N = %d, want 12", sys.N())
	}
	// 2 constraints x 2 departments = 4 ground rows.
	if len(sys.Rows) != 4 {
		t.Errorf("rows = %d, want 4", len(sys.Rows))
	}
}

func TestMultiMeasureConsistencyAndRepair(t *testing.T) {
	db, acs := planVsActualDB(t)
	viols, err := aggrcons.Check(db, acs, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Fatalf("fixture should be consistent, got %v", viols)
	}

	// Corrupt one Planned value: IT hardware 100 -> 130. The card-minimal
	// repair restores either the line or compensates elsewhere; either way
	// card must be 1 and the Actual columns must stay untouched.
	r := db.Relation("Budget")
	tp := r.Tuples()[0]
	if err := r.SetValue(tp.ID(), "Planned", relational.Int(130)); err != nil {
		t.Fatal(err)
	}
	for _, solver := range []core.Solver{&core.MILPSolver{}, &core.CardinalitySearchSolver{}} {
		res, err := core.FindRepair(context.Background(), solver, db.Clone(), acs, nil)
		if err != nil {
			t.Fatalf("%s: %v", solver.Name(), err)
		}
		if res.Status != milp.StatusOptimal || res.Card != 1 {
			t.Fatalf("%s: status %v card %d", solver.Name(), res.Status, res.Card)
		}
		u := res.Repair.Updates[0]
		if u.Item.Attr == "Actual" || u.Item.Attr == "ActualTotal" {
			t.Errorf("%s: repair leaked into the Actual component: %v", solver.Name(), u)
		}
	}
}

func TestMultiMeasureComponentsSplitByColumn(t *testing.T) {
	// Planned and Actual never share a constraint row, so the system must
	// split into (at least) planned/actual components per department.
	db, acs := planVsActualDB(t)
	sys, err := core.BuildSystem(db, acs)
	if err != nil {
		t.Fatal(err)
	}
	subs := sys.Split()
	if len(subs) != 4 { // {IT,HR} x {Planned,Actual}
		t.Fatalf("components = %d, want 4", len(subs))
	}
	for _, sub := range subs {
		attrs := map[string]bool{}
		for _, it := range sub.Items {
			attrs[it.Attr] = true
		}
		if attrs["Planned"] && attrs["Actual"] {
			t.Errorf("component mixes Planned and Actual: %v", sub.Items)
		}
	}
}

func TestMultiMeasureErrorsInBothColumns(t *testing.T) {
	db, acs := planVsActualDB(t)
	r := db.Relation("Budget")
	if err := r.SetValue(r.Tuples()[0].ID(), "Planned", relational.Int(130)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetValue(r.Tuples()[2].ID(), "Actual", relational.Int(90)); err != nil {
		t.Fatal(err)
	}
	res, err := core.FindRepair(context.Background(), &core.MILPSolver{}, db, acs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Card != 2 {
		t.Fatalf("card = %d, want 2 (one per damaged column)", res.Card)
	}
	if res.Components != 2 {
		t.Errorf("components solved = %d, want 2", res.Components)
	}
}
