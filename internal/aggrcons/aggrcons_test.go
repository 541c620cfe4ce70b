package aggrcons_test

import (
	"math"
	"strings"
	"testing"

	"dart/internal/aggrcons"
	"dart/internal/relational"
	"dart/internal/runningex"
)

// --- Example 2: aggregation function evaluation -------------------------

func TestChi1RunningExample(t *testing.T) {
	db := runningex.AcquiredDatabase()
	chi1 := runningex.Chi1()
	tests := []struct {
		section, typ string
		year         int64
		want         float64
	}{
		{"Receipts", "det", 2003, 220},       // 100 + 120 (paper Example 2)
		{"Disbursements", "aggr", 2003, 160}, // paper Example 2
		{"Receipts", "aggr", 2003, 250},      // the erroneous acquired value
		{"Disbursements", "det", 2004, 190},
		{"Nowhere", "det", 2003, 0}, // empty sum
	}
	for _, tc := range tests {
		got, err := chi1.Eval(db, []relational.Value{
			relational.String(tc.section), relational.Int(tc.year), relational.String(tc.typ),
		})
		if err != nil {
			t.Fatalf("chi1(%s,%d,%s): %v", tc.section, tc.year, tc.typ, err)
		}
		if got != tc.want {
			t.Errorf("chi1(%s,%d,%s) = %v, want %v", tc.section, tc.year, tc.typ, got, tc.want)
		}
	}
}

func TestChi2RunningExample(t *testing.T) {
	db := runningex.AcquiredDatabase()
	chi2 := runningex.Chi2()
	tests := []struct {
		year int64
		sub  string
		want float64
	}{
		{2003, "cash sales", 100},     // paper Example 2
		{2004, "net cash inflow", 10}, // paper Example 2
		{2003, "total cash receipts", 250},
	}
	for _, tc := range tests {
		got, err := chi2.Eval(db, []relational.Value{relational.Int(tc.year), relational.String(tc.sub)})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("chi2(%d,%q) = %v, want %v", tc.year, tc.sub, got, tc.want)
		}
	}
}

func TestAggFuncArityAndRelationErrors(t *testing.T) {
	db := runningex.AcquiredDatabase()
	chi1 := runningex.Chi1()
	if _, err := chi1.Eval(db, []relational.Value{relational.Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	bad := *chi1
	bad.Relation = "Nope"
	if _, err := bad.Eval(db, []relational.Value{relational.String("a"), relational.Int(1), relational.String("b")}); err == nil {
		t.Error("unknown relation should fail")
	}
}

// --- Attribute expressions ----------------------------------------------

func TestAttrExprEvalAndLinearize(t *testing.T) {
	db := runningex.CorrectDatabase()
	tp := db.Relation("CashBudget").Tuples()[1] // cash sales 2003, value 100

	e := aggrcons.BinExpr{
		Op: aggrcons.OpAdd,
		L:  aggrcons.ScaleExpr{C: 2, E: aggrcons.AttrTerm("Value")},
		R: aggrcons.BinExpr{
			Op: aggrcons.OpSub,
			L:  aggrcons.ConstExpr(7),
			R:  aggrcons.AttrTerm("Year"),
		},
	}
	got, err := e.Eval(tp)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*100.0 + 7 - 2003; got != want {
		t.Errorf("Eval = %v, want %v", got, want)
	}
	lf := aggrcons.Linearize(e)
	if lf.Const != 7 || lf.Coeffs["Value"] != 2 || lf.Coeffs["Year"] != -1 {
		t.Errorf("Linearize = %+v", lf)
	}
	if s := e.String(); !strings.Contains(s, "Value") || !strings.Contains(s, "Year") {
		t.Errorf("String = %q", s)
	}
}

func TestAttrExprErrors(t *testing.T) {
	db := runningex.CorrectDatabase()
	tp := db.Relation("CashBudget").Tuples()[0]
	if _, err := aggrcons.AttrTerm("Missing").Eval(tp); err == nil {
		t.Error("missing attribute should fail")
	}
	if _, err := aggrcons.AttrTerm("Section").Eval(tp); err == nil {
		t.Error("non-numerical attribute should fail")
	}
	// Errors propagate through composite expressions.
	bad := aggrcons.BinExpr{Op: aggrcons.OpAdd, L: aggrcons.AttrTerm("Missing"), R: aggrcons.ConstExpr(1)}
	if _, err := bad.Eval(tp); err == nil {
		t.Error("error should propagate through BinExpr left")
	}
	bad2 := aggrcons.BinExpr{Op: aggrcons.OpAdd, L: aggrcons.ConstExpr(1), R: aggrcons.AttrTerm("Missing")}
	if _, err := bad2.Eval(tp); err == nil {
		t.Error("error should propagate through BinExpr right")
	}
	bad3 := aggrcons.ScaleExpr{C: 2, E: aggrcons.AttrTerm("Missing")}
	if _, err := bad3.Eval(tp); err == nil {
		t.Error("error should propagate through ScaleExpr")
	}
}

func TestLinearizeCancellation(t *testing.T) {
	// Value - Value cancels to nothing.
	e := aggrcons.BinExpr{Op: aggrcons.OpSub, L: aggrcons.AttrTerm("Value"), R: aggrcons.AttrTerm("Value")}
	lf := aggrcons.Linearize(e)
	if len(lf.Coeffs) != 0 || lf.Const != 0 {
		t.Errorf("Linearize(Value-Value) = %+v, want empty", lf)
	}
}

// --- Formula evaluation --------------------------------------------------

func TestCmpOperators(t *testing.T) {
	db := runningex.CorrectDatabase()
	tp := db.Relation("CashBudget").Tuples()[1] // 2003, Receipts, cash sales, det, 100
	args := []relational.Value{relational.Int(2003)}
	tests := []struct {
		f    aggrcons.BoolExpr
		want bool
	}{
		{aggrcons.Cmp{L: aggrcons.OpAttr("Year"), Op: aggrcons.CmpEQ, R: aggrcons.OpParam(0)}, true},
		{aggrcons.Cmp{L: aggrcons.OpAttr("Year"), Op: aggrcons.CmpNE, R: aggrcons.OpParam(0)}, false},
		{aggrcons.Cmp{L: aggrcons.OpAttr("Value"), Op: aggrcons.CmpLT, R: aggrcons.OpConst(relational.Int(101))}, true},
		{aggrcons.Cmp{L: aggrcons.OpAttr("Value"), Op: aggrcons.CmpLE, R: aggrcons.OpConst(relational.Int(100))}, true},
		{aggrcons.Cmp{L: aggrcons.OpAttr("Value"), Op: aggrcons.CmpGT, R: aggrcons.OpConst(relational.Int(100))}, false},
		{aggrcons.Cmp{L: aggrcons.OpAttr("Value"), Op: aggrcons.CmpGE, R: aggrcons.OpConst(relational.Int(100))}, true},
		{aggrcons.Cmp{L: aggrcons.OpAttr("Section"), Op: aggrcons.CmpEQ, R: aggrcons.OpConst(relational.String("Receipts"))}, true},
		// Cross-domain string/number: only <> holds.
		{aggrcons.Cmp{L: aggrcons.OpAttr("Section"), Op: aggrcons.CmpEQ, R: aggrcons.OpConst(relational.Int(5))}, false},
		{aggrcons.Cmp{L: aggrcons.OpAttr("Section"), Op: aggrcons.CmpNE, R: aggrcons.OpConst(relational.Int(5))}, true},
		// Numeric comparison across Z and R.
		{aggrcons.Cmp{L: aggrcons.OpAttr("Value"), Op: aggrcons.CmpEQ, R: aggrcons.OpConst(relational.Real(100.0))}, true},
		{aggrcons.And{}, true},
		{aggrcons.Or{aggrcons.Cmp{L: aggrcons.OpAttr("Year"), Op: aggrcons.CmpEQ, R: aggrcons.OpConst(relational.Int(1999))},
			aggrcons.Cmp{L: aggrcons.OpAttr("Year"), Op: aggrcons.CmpEQ, R: aggrcons.OpParam(0)}}, true},
		{aggrcons.Not{F: aggrcons.Cmp{L: aggrcons.OpAttr("Year"), Op: aggrcons.CmpEQ, R: aggrcons.OpParam(0)}}, false},
	}
	for i, tc := range tests {
		got, err := tc.f.Eval(tp, args)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != tc.want {
			t.Errorf("case %d (%s): got %v, want %v", i, tc.f.Render([]string{"x"}), got, tc.want)
		}
	}
}

func TestFormulaErrors(t *testing.T) {
	db := runningex.CorrectDatabase()
	tp := db.Relation("CashBudget").Tuples()[0]
	bad := aggrcons.Cmp{L: aggrcons.OpAttr("Missing"), Op: aggrcons.CmpEQ, R: aggrcons.OpConst(relational.Int(1))}
	if _, err := bad.Eval(tp, nil); err == nil {
		t.Error("missing attribute should fail")
	}
	oob := aggrcons.Cmp{L: aggrcons.OpParam(3), Op: aggrcons.CmpEQ, R: aggrcons.OpConst(relational.Int(1))}
	if _, err := oob.Eval(tp, nil); err == nil {
		t.Error("out-of-range parameter should fail")
	}
	if _, err := (aggrcons.And{bad}).Eval(tp, nil); err == nil {
		t.Error("And should propagate errors")
	}
	if _, err := (aggrcons.Or{bad}).Eval(tp, nil); err == nil {
		t.Error("Or should propagate errors")
	}
	if _, err := (aggrcons.Not{F: bad}).Eval(tp, nil); err == nil {
		t.Error("Not should propagate errors")
	}
}

// --- Grounding and consistency checking ---------------------------------

func TestGroundAllDeduplicates(t *testing.T) {
	db := runningex.AcquiredDatabase()
	// Constraint 1 grounds over (section, year) pairs appearing in the body:
	// 3 sections x 2 years = 6 distinct ground constraints (each of the 20
	// tuples produces a substitution, deduplicated down to 6).
	grounds, err := runningex.Constraint1().GroundAll(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(grounds) != 6 {
		t.Errorf("Constraint1 grounds = %d, want 6", len(grounds))
	}
	// Constraints 2 and 3 ground once per year.
	for _, k := range []int{1, 2} {
		grounds, err := runningex.Constraints()[k].GroundAll(db)
		if err != nil {
			t.Fatal(err)
		}
		if len(grounds) != 2 {
			t.Errorf("constraint %d grounds = %d, want 2", k+1, len(grounds))
		}
	}
}

func TestCheckDetectsTheRunningExampleInconsistency(t *testing.T) {
	db := runningex.AcquiredDatabase()
	viols, err := aggrcons.Check(db, runningex.Constraints(), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the two violations of Example 1: constraint (a) [Constraint 1,
	// Receipts 2003] and constraint (c) [Constraint 2, year 2003].
	if len(viols) != 2 {
		t.Fatalf("violations = %d, want 2:\n%v", len(viols), viols)
	}
	names := map[string]bool{}
	for _, v := range viols {
		names[v.Ground.Source.Name] = true
	}
	if !names["Constraint1"] || !names["Constraint2"] {
		t.Errorf("violated constraints = %v, want Constraint1 and Constraint2", names)
	}
}

func TestCheckPassesOnCorrectDatabase(t *testing.T) {
	db := runningex.CorrectDatabase()
	viols, err := aggrcons.Check(db, runningex.Constraints(), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Errorf("correct database reported inconsistent: %v", viols)
	}
}

func TestGroundHoldsAndLHS(t *testing.T) {
	db := runningex.AcquiredDatabase()
	grounds, err := runningex.Constraint1().GroundAll(db)
	if err != nil {
		t.Fatal(err)
	}
	var bad *aggrcons.Ground
	for _, g := range grounds {
		ok, err := g.Holds(db, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			bad = g
		}
	}
	if bad == nil {
		t.Fatal("no violated ground constraint found")
	}
	lhs, err := bad.LHS(db)
	if err != nil {
		t.Fatal(err)
	}
	if lhs != -30 { // det sum 220 - aggr 250
		t.Errorf("violated LHS = %v, want -30", lhs)
	}
	if s := bad.String(); !strings.Contains(s, "chi1") {
		t.Errorf("Ground.String = %q", s)
	}
}

func TestConstraintValidate(t *testing.T) {
	db := runningex.AcquiredDatabase()
	chi1 := runningex.Chi1()

	cases := []struct {
		name string
		k    *aggrcons.Constraint
	}{
		{"unknown relation", &aggrcons.Constraint{
			Body: []aggrcons.Atom{{Relation: "Nope", Args: []aggrcons.ArgTerm{aggrcons.Wildcard()}}},
		}},
		{"wrong arity atom", &aggrcons.Constraint{
			Body: []aggrcons.Atom{{Relation: "CashBudget", Args: []aggrcons.ArgTerm{aggrcons.Wildcard()}}},
		}},
		{"call variable not in body", &aggrcons.Constraint{
			Body: []aggrcons.Atom{{Relation: "CashBudget", Args: []aggrcons.ArgTerm{
				aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard()}}},
			Calls: []aggrcons.AggCall{{Coeff: 1, Func: chi1, Args: []aggrcons.ArgTerm{
				aggrcons.VarArg("q"), aggrcons.VarArg("q"), aggrcons.VarArg("q")}}},
		}},
		{"wildcard in call", &aggrcons.Constraint{
			Body: []aggrcons.Atom{{Relation: "CashBudget", Args: []aggrcons.ArgTerm{
				aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard()}}},
			Calls: []aggrcons.AggCall{{Coeff: 1, Func: chi1, Args: []aggrcons.ArgTerm{
				aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard()}}},
		}},
		{"call arity", &aggrcons.Constraint{
			Body: []aggrcons.Atom{{Relation: "CashBudget", Args: []aggrcons.ArgTerm{
				aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard()}}},
			Calls: []aggrcons.AggCall{{Coeff: 1, Func: chi1, Args: nil}},
		}},
	}
	for _, tc := range cases {
		if err := tc.k.Validate(db); err == nil {
			t.Errorf("%s: Validate should fail", tc.name)
		}
	}
	for _, k := range runningex.Constraints() {
		if err := k.Validate(db); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

func TestConstraintAndGroundStrings(t *testing.T) {
	k := runningex.Constraint1()
	s := k.String()
	for _, want := range []string{"CashBudget(y, x, _, _, _)", "==>", "chi1(x, y, 'det')", "- chi1(x, y, 'aggr')", "= 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("Constraint.String() = %q missing %q", s, want)
		}
	}
	if fs := runningex.Chi1().String(); !strings.Contains(fs, "SELECT sum(Value) FROM CashBudget") {
		t.Errorf("AggFunc.String() = %q", fs)
	}
}

// --- Steadiness (Definition 6, Example 9) --------------------------------

func TestRunningExampleConstraintsAreSteady(t *testing.T) {
	db := runningex.AcquiredDatabase()
	k1 := runningex.Constraint1()
	// Paper: A(Constraint1) = {Year, Section, Type}, J(Constraint1) = {}.
	a := k1.ASet(db)
	gotA := map[string]bool{}
	for _, r := range a {
		gotA[r.Attribute] = true
	}
	if len(a) != 3 || !gotA["Year"] || !gotA["Section"] || !gotA["Type"] {
		t.Errorf("A(Constraint1) = %v, want {Year, Section, Type}", a)
	}
	if j := k1.JSet(db); len(j) != 0 {
		t.Errorf("J(Constraint1) = %v, want empty", j)
	}
	for _, k := range runningex.Constraints() {
		if !k.IsSteady(db) {
			t.Errorf("%s should be steady", k.Name)
		}
		if v := k.SteadyViolations(db); len(v) != 0 {
			t.Errorf("%s steady violations = %v", k.Name, v)
		}
	}
}

func TestExample9NonSteady(t *testing.T) {
	// Example 9: D with R1(A1,A2,A3), R2(A4,A5,A6), M_D = {A2, A4};
	// kappa: R1(x1,x2,x3), R2(x3,x4,x5) ==> chi(x2) <= K
	// chi(x) = SELECT sum(A6) FROM R2 WHERE A5 = x.
	// A(kappa) = {A5, A2}; J(kappa) = {A3, A4}; kappa is NOT steady.
	db := relational.NewDatabase()
	db.MustAddRelation(relational.MustSchema("R1",
		relational.Attribute{Name: "A1", Domain: relational.DomainInt},
		relational.Attribute{Name: "A2", Domain: relational.DomainInt},
		relational.Attribute{Name: "A3", Domain: relational.DomainInt},
	))
	db.MustAddRelation(relational.MustSchema("R2",
		relational.Attribute{Name: "A4", Domain: relational.DomainInt},
		relational.Attribute{Name: "A5", Domain: relational.DomainInt},
		relational.Attribute{Name: "A6", Domain: relational.DomainInt},
	))
	if err := db.DesignateMeasure("R1", "A2"); err != nil {
		t.Fatal(err)
	}
	if err := db.DesignateMeasure("R2", "A4"); err != nil {
		t.Fatal(err)
	}
	chi := &aggrcons.AggFunc{
		Name: "chi", Relation: "R2", Params: []string{"x"},
		Expr:  aggrcons.AttrTerm("A6"),
		Where: aggrcons.Cmp{L: aggrcons.OpAttr("A5"), Op: aggrcons.CmpEQ, R: aggrcons.OpParam(0)},
	}
	kappa := &aggrcons.Constraint{
		Name: "kappa",
		Body: []aggrcons.Atom{
			{Relation: "R1", Args: []aggrcons.ArgTerm{aggrcons.VarArg("x1"), aggrcons.VarArg("x2"), aggrcons.VarArg("x3")}},
			{Relation: "R2", Args: []aggrcons.ArgTerm{aggrcons.VarArg("x3"), aggrcons.VarArg("x4"), aggrcons.VarArg("x5")}},
		},
		Calls: []aggrcons.AggCall{{Coeff: 1, Func: chi, Args: []aggrcons.ArgTerm{aggrcons.VarArg("x2")}}},
		Rel:   aggrcons.LE,
		K:     10,
	}
	aSet := kappa.ASet(db)
	wantA := map[relational.AttrRef]bool{
		{Relation: "R2", Attribute: "A5"}: true,
		{Relation: "R1", Attribute: "A2"}: true,
	}
	if len(aSet) != 2 || !wantA[aSet[0]] || !wantA[aSet[1]] {
		t.Errorf("A(kappa) = %v, want {R2.A5, R1.A2}", aSet)
	}
	jSet := kappa.JSet(db)
	wantJ := map[relational.AttrRef]bool{
		{Relation: "R1", Attribute: "A3"}: true,
		{Relation: "R2", Attribute: "A4"}: true,
	}
	if len(jSet) != 2 || !wantJ[jSet[0]] || !wantJ[jSet[1]] {
		t.Errorf("J(kappa) = %v, want {R1.A3, R2.A4}", jSet)
	}
	if kappa.IsSteady(db) {
		t.Error("kappa must not be steady (Example 9)")
	}
	v := kappa.SteadyViolations(db)
	if len(v) != 2 { // A2 (in A) and A4 (in J) are measures
		t.Errorf("SteadyViolations = %v, want {R1.A2, R2.A4}", v)
	}
}

func TestGroundKeyStability(t *testing.T) {
	db := runningex.AcquiredDatabase()
	g1, err := runningex.Constraint1().GroundAll(db)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := runningex.Constraint1().GroundAll(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) != len(g2) {
		t.Fatal("grounding not deterministic")
	}
	for i := range g1 {
		if g1[i].Key() != g2[i].Key() {
			t.Errorf("ground %d keys differ: %q vs %q", i, g1[i].Key(), g2[i].Key())
		}
	}
}

func TestInequalityConstraintDirections(t *testing.T) {
	// A LE constraint that holds and a GE constraint that fails.
	db := runningex.CorrectDatabase()
	chi2 := runningex.Chi2()
	body := []aggrcons.Atom{{Relation: "CashBudget", Args: []aggrcons.ArgTerm{
		aggrcons.VarArg("x"), aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard(), aggrcons.Wildcard()}}}
	le := &aggrcons.Constraint{
		Name: "le", Body: body, Rel: aggrcons.LE, K: 1000,
		Calls: []aggrcons.AggCall{{Coeff: 1, Func: chi2, Args: []aggrcons.ArgTerm{
			aggrcons.VarArg("x"), aggrcons.ConstArg(relational.String("cash sales"))}}},
	}
	ge := &aggrcons.Constraint{
		Name: "ge", Body: body, Rel: aggrcons.GE, K: 1000,
		Calls: le.Calls,
	}
	viols, err := aggrcons.Check(db, []*aggrcons.Constraint{le}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Errorf("LE 1000 should hold, got %v", viols)
	}
	viols, err = aggrcons.Check(db, []*aggrcons.Constraint{ge}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 2 { // one per year
		t.Errorf("GE 1000 should fail twice, got %v", viols)
	}
	if math.Abs(viols[0].LHS-100) > 1e-9 {
		t.Errorf("LHS = %v, want 100", viols[0].LHS)
	}
}

func TestEverySingleValueChangeIsDetectable(t *testing.T) {
	// Completeness of the constraint net on the running example: every
	// measure value participates in at least one ground constraint, so any
	// single-value corruption makes the database inconsistent. This is the
	// property that guarantees single acquisition errors never slip through.
	base := runningex.CorrectDatabase()
	r := base.Relation("CashBudget")
	for _, tp := range r.Tuples() {
		db := base.Clone()
		old := tp.Get("Value").AsInt()
		if err := db.Relation("CashBudget").SetValue(tp.ID(), "Value", relational.Int(old+13)); err != nil {
			t.Fatal(err)
		}
		viols, err := aggrcons.Check(db, runningex.Constraints(), 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if len(viols) == 0 {
			t.Errorf("corrupting tuple %v went undetected", tp)
		}
	}
}

// joinFixture builds two relations sharing a string key and a constraint
// whose body joins them on it.
func joinFixture(t *testing.T) (*relational.Database, *aggrcons.Constraint) {
	t.Helper()
	db := relational.NewDatabase()
	r1 := db.MustAddRelation(relational.MustSchema("L",
		relational.Attribute{Name: "K", Domain: relational.DomainString},
		relational.Attribute{Name: "V", Domain: relational.DomainInt},
	))
	r2 := db.MustAddRelation(relational.MustSchema("R",
		relational.Attribute{Name: "K", Domain: relational.DomainString},
		relational.Attribute{Name: "W", Domain: relational.DomainInt},
	))
	if err := db.DesignateMeasure("L", "V"); err != nil {
		t.Fatal(err)
	}
	if err := db.DesignateMeasure("R", "W"); err != nil {
		t.Fatal(err)
	}
	r1.MustInsert(relational.String("a"), relational.Int(1))
	r1.MustInsert(relational.String("b"), relational.Int(2))
	r2.MustInsert(relational.String("b"), relational.Int(20))
	r2.MustInsert(relational.String("c"), relational.Int(30))

	sumV := &aggrcons.AggFunc{
		Name: "sumV", Relation: "L", Params: []string{"k"},
		Expr:  aggrcons.AttrTerm("V"),
		Where: aggrcons.Cmp{L: aggrcons.OpAttr("K"), Op: aggrcons.CmpEQ, R: aggrcons.OpParam(0)},
	}
	k := &aggrcons.Constraint{
		Name: "join",
		Body: []aggrcons.Atom{
			{Relation: "L", Args: []aggrcons.ArgTerm{aggrcons.VarArg("k"), aggrcons.Wildcard()}},
			{Relation: "R", Args: []aggrcons.ArgTerm{aggrcons.VarArg("k"), aggrcons.Wildcard()}},
		},
		Calls: []aggrcons.AggCall{{Coeff: 1, Func: sumV, Args: []aggrcons.ArgTerm{aggrcons.VarArg("k")}}},
		Rel:   aggrcons.LE, K: 100,
	}
	return db, k
}

func TestJoinGrounding(t *testing.T) {
	// Two atoms sharing a variable ground only over matching tuples (a
	// conjunctive join), not the cross product.
	db, k := joinFixture(t)
	grounds, err := k.GroundAll(db)
	if err != nil {
		t.Fatal(err)
	}
	// Only k='b' appears in both relations.
	if len(grounds) != 1 {
		t.Fatalf("grounds = %d, want 1 (join on 'b' only): %v", len(grounds), grounds)
	}
	if got := grounds[0].Args[0][0]; got != relational.String("b") {
		t.Errorf("call argument = %v, want 'b'", got)
	}
}
