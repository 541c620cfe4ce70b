package consparse_test

import (
	"context"
	"strings"
	"testing"

	"dart/internal/aggrcons"
	"dart/internal/consparse"
	"dart/internal/core"
	"dart/internal/milp"
	"dart/internal/relational"
	"dart/internal/runningex"
)

// RunningExampleSource is the paper's Examples 2-4 in the DSL.
const runningExampleSource = `
# Aggregation functions of Example 2.
func chi1(x, y, z) := SELECT sum(Value) FROM CashBudget
                      WHERE Section = x AND Year = y AND Type = z
func chi2(x, y)    := SELECT sum(Value) FROM CashBudget
                      WHERE Year = x AND Subsection = y

# Constraint 1 (Example 3).
constraint Constraint1:
    CashBudget(y, x, _, _, _) ==> chi1(x, y, 'det') - chi1(x, y, 'aggr') = 0

# Constraints 2 and 3 (Example 4).
constraint Constraint2:
    CashBudget(x, _, _, _, _) ==>
      chi2(x, 'net cash inflow') - (chi2(x, 'total cash receipts') - chi2(x, 'total disbursements')) = 0

constraint Constraint3:
    CashBudget(x, _, _, _, _) ==>
      chi2(x, 'ending cash balance') - (chi2(x, 'beginning cash') + chi2(x, 'net cash inflow')) = 0
`

func TestParseRunningExample(t *testing.T) {
	cat, err := consparse.Parse(runningExampleSource)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Funcs) != 2 || len(cat.Constraints) != 3 {
		t.Fatalf("funcs=%d constraints=%d", len(cat.Funcs), len(cat.Constraints))
	}
	if got := cat.FuncOrder; got[0] != "chi1" || got[1] != "chi2" {
		t.Errorf("FuncOrder = %v", got)
	}
	chi1 := cat.Funcs["chi1"]
	if chi1.Relation != "CashBudget" || chi1.Arity() != 3 {
		t.Errorf("chi1 = %+v", chi1)
	}
	db := runningex.AcquiredDatabase()
	got, err := chi1.Eval(db, []relational.Value{
		relational.String("Receipts"), relational.Int(2003), relational.String("det")})
	if err != nil {
		t.Fatal(err)
	}
	if got != 220 {
		t.Errorf("parsed chi1('Receipts',2003,'det') = %v, want 220", got)
	}
	// Constraint 2's parenthesized group must distribute the minus sign:
	// coefficients +1, -1, +1.
	c2 := cat.Constraints[1]
	if len(c2.Calls) != 3 {
		t.Fatalf("Constraint2 calls = %d", len(c2.Calls))
	}
	wantCoeffs := []float64{1, -1, 1}
	for i, c := range c2.Calls {
		if c.Coeff != wantCoeffs[i] {
			t.Errorf("Constraint2 call %d coeff = %v, want %v", i, c.Coeff, wantCoeffs[i])
		}
	}
}

func TestParsedConstraintsMatchHandBuilt(t *testing.T) {
	// The parsed catalog must yield the same violations and the same
	// card-minimal repair as the programmatic fixtures.
	cat, err := consparse.Parse(runningExampleSource)
	if err != nil {
		t.Fatal(err)
	}
	db := runningex.AcquiredDatabase()
	viols, err := aggrcons.Check(db, cat.Constraints, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 2 {
		t.Fatalf("violations = %d, want 2", len(viols))
	}
	res, err := core.FindRepair(context.Background(), &core.MILPSolver{}, db, cat.Constraints, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal || res.Card != 1 {
		t.Fatalf("status %v card %d", res.Status, res.Card)
	}
	if res.Repair.Updates[0].New != relational.Int(220) {
		t.Errorf("repair = %v", res.Repair)
	}
	for _, k := range cat.Constraints {
		if !k.IsSteady(db) {
			t.Errorf("parsed %s should be steady", k.Name)
		}
	}
}

func TestParseInequalitiesAndCoefficients(t *testing.T) {
	src := `
func total(x) := SELECT sum(Value) FROM CashBudget WHERE Year = x
constraint cap: CashBudget(x, _, _, _, _) ==> 2*total(x) - 0.5*total(x) <= 1500
constraint floor: CashBudget(x, _, _, _, _) ==> total(x) >= -10
`
	cat, err := consparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cap := cat.Constraints[0]
	if cap.Rel != aggrcons.LE || cap.K != 1500 {
		t.Errorf("cap = rel %v K %v", cap.Rel, cap.K)
	}
	if cap.Calls[0].Coeff != 2 || cap.Calls[1].Coeff != -0.5 {
		t.Errorf("coeffs = %v, %v", cap.Calls[0].Coeff, cap.Calls[1].Coeff)
	}
	floor := cat.Constraints[1]
	if floor.Rel != aggrcons.GE || floor.K != -10 {
		t.Errorf("floor = rel %v K %v", floor.Rel, floor.K)
	}
	db := runningex.CorrectDatabase()
	if _, err := aggrcons.Check(db, cat.Constraints, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestParseWhereFormulaFeatures(t *testing.T) {
	src := `
func f(a) := SELECT sum(Value) FROM CashBudget
             WHERE (Year = a OR Year = 2004) AND NOT (Type <> 'det') AND Value >= 0
func g() := SELECT sum(2*(Value) + 1 - Value) FROM CashBudget
constraint k: CashBudget(x, _, _, _, _) ==> f(x) <= 100000
`
	cat, err := consparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	db := runningex.CorrectDatabase()
	// f(2003) sums det rows with Value >= 0 over years 2003 and 2004:
	// 2003: 100+120+120+0+40 = 380; 2004: 100+100+130+40+20 = 390.
	got, err := cat.Funcs["f"].Eval(db, []relational.Value{relational.Int(2003)})
	if err != nil {
		t.Fatal(err)
	}
	if got != 770 {
		t.Errorf("f(2003) = %v, want 770", got)
	}
	// g() sums 2*Value + 1 - Value = Value + 1 over all 20 tuples:
	// total values = 990+1030 = 2020? compute: 2003 sums 20+100+120+220+120+0+40+160+60+80=920;
	// 2004: 80+100+100+200+130+40+20+190+10+90=960; total 1880 + 20 = 1900.
	got, err = cat.Funcs["g"].Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1900 {
		t.Errorf("g() = %v, want 1900", got)
	}
}

func TestParseQuotedEscapesAndComments(t *testing.T) {
	src := `
# a comment with 'quotes' and ==> arrows
func f(a) := SELECT sum(Value) FROM CashBudget WHERE Subsection = 'it''s'
constraint k: CashBudget(x, _, _, _, _) ==> f(x) <= 5 # trailing comment
`
	cat, err := consparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cmp := cat.Funcs["f"].Where.(aggrcons.Cmp)
	if cmp.Render(cat.Funcs["f"].Params) != "Subsection = 'it's'" {
		t.Errorf("Render = %q", cmp.Render(cat.Funcs["f"].Params))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"garbage", "42", "expected 'func' or 'constraint'"},
		{"bad decl", "banana x", "expected 'func' or 'constraint'"},
		{"unterminated string", "func f(a) := SELECT sum(V) FROM R WHERE A = 'oops\n", "unterminated string"},
		{"unknown func", "constraint k: R(x) ==> nosuch(x) = 0", "unknown aggregation function"},
		{"dup func", "func f() := SELECT sum(V) FROM R\nfunc f() := SELECT sum(V) FROM R", "duplicate aggregation function"},
		{"dup param", "func f(a, a) := SELECT sum(V) FROM R", "duplicate parameter"},
		{"missing arrow", "func f() := SELECT sum(V) FROM R\nconstraint k: R(x) f() = 0", `expected "==>"`},
		{"bad rel", "func f() := SELECT sum(V) FROM R\nconstraint k: R(x) ==> f() < 0", "expected '=', '<=' or '>='"},
		{"missing K", "func f() := SELECT sum(V) FROM R\nconstraint k: R(x) ==> f() = ", "expected constant K"},
		{"bad char", "func f() := SELECT sum(V) FROM R WHERE A = @", "unexpected character"},
		{"wildcard in call", "func f(a) := SELECT sum(V) FROM R\nconstraint k: R(x) ==> f(_) = 0", "wildcard not allowed"},
		{"bad operand", "func f() := SELECT sum(V) FROM R WHERE = 3", "expected operand"},
		{"bad cmp op", "func f() := SELECT sum(V) FROM R WHERE A + B", "expected comparison operator"},
	}
	for _, tc := range cases {
		_, err := consparse.Parse(tc.src)
		if err == nil {
			t.Errorf("%s: expected error containing %q, got nil", tc.name, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestParseRoundTripThroughString(t *testing.T) {
	// Rendering a parsed constraint and the hand-built one must agree.
	cat, err := consparse.Parse(runningExampleSource)
	if err != nil {
		t.Fatal(err)
	}
	want := runningex.Constraint1().String()
	if got := cat.Constraints[0].String(); got != want {
		t.Errorf("parsed: %q\nhand-built: %q", got, want)
	}
}

func TestParseNegativeConstantArgsAndFloats(t *testing.T) {
	src := `
func f(a, b) := SELECT sum(Value) FROM CashBudget WHERE Year = a AND Value >= b
constraint k: CashBudget(x, _, _, _, _) ==> f(x, -5) + f(x, 2.5) <= 100000.5
`
	cat, err := consparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	k := cat.Constraints[0]
	if k.K != 100000.5 {
		t.Errorf("K = %v", k.K)
	}
	db := runningex.CorrectDatabase()
	viols, err := aggrcons.Check(db, cat.Constraints, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Errorf("violations: %v", viols)
	}
}

func TestParseSumExpressionVariants(t *testing.T) {
	// Exercise the attribute-expression grammar: scaled parens, negation,
	// bare constants, nested parens, scaled attributes.
	src := `
func f1() := SELECT sum(2*(Value + 1) - Year) FROM CashBudget
func f2() := SELECT sum(-Value) FROM CashBudget
func f3() := SELECT sum(3) FROM CashBudget
func f4() := SELECT sum((Value)) FROM CashBudget
func f5() := SELECT sum(0.5*Value) FROM CashBudget
constraint k: CashBudget(x, _, _, _, _) ==> f3() <= 10000
`
	cat, err := consparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	db := runningex.CorrectDatabase()
	// f1 = sum(2*Value + 2 - Year); totals: values 1880, years 20 rows of
	// 2003/2004 -> sum(Year) = 10*2003 + 10*2004 = 40070.
	got, err := cat.Funcs["f1"].Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*1880.0 + 2*20 - 40070; got != want {
		t.Errorf("f1 = %v, want %v", got, want)
	}
	got, _ = cat.Funcs["f2"].Eval(db, nil)
	if got != -1880 {
		t.Errorf("f2 = %v, want -1880", got)
	}
	got, _ = cat.Funcs["f3"].Eval(db, nil)
	if got != 60 { // 3 per tuple x 20
		t.Errorf("f3 = %v, want 60", got)
	}
	got, _ = cat.Funcs["f5"].Eval(db, nil)
	if got != 940 {
		t.Errorf("f5 = %v, want 940", got)
	}
}

func TestParseMoreErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"bad sum term", "func f() := SELECT sum(,) FROM R"},
		{"unclosed sum paren", "func f() := SELECT sum((A) FROM R"},
		{"bad factor", "func f() := SELECT sum(2*,) FROM R"},
		{"missing from", "func f() := SELECT sum(A) R"},
		{"bad where operand neg", "func f() := SELECT sum(A) FROM R WHERE A = -x"},
		{"bad arg", "func f(a) := SELECT sum(A) FROM R\nconstraint k: R(x) ==> f(==) = 0"},
		{"neg arg not number", "func f(a) := SELECT sum(A) FROM R\nconstraint k: R(x) ==> f(-y) = 0"},
		{"missing colon", "constraint k R(x) ==> f() = 0"},
	}
	for _, tc := range cases {
		if _, err := consparse.Parse(tc.src); err == nil {
			t.Errorf("%s: expected parse error", tc.name)
		}
	}
}

func TestParseNegativeKAndOr(t *testing.T) {
	src := `
func f(a) := SELECT sum(Value) FROM CashBudget WHERE Year = a OR Year = -1 OR Type = 'det'
constraint k: CashBudget(x, _, _, _, _) ==> -1*f(x) >= -100000
`
	cat, err := consparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Constraints[0].Calls[0].Coeff != -1 {
		t.Errorf("coeff = %v", cat.Constraints[0].Calls[0].Coeff)
	}
	db := runningex.CorrectDatabase()
	if _, err := aggrcons.Check(db, cat.Constraints, 1e-9); err != nil {
		t.Fatal(err)
	}
}
