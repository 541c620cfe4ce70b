package scenario_test

import (
	"context"
	"math/rand"
	"testing"

	"dart"
	"dart/internal/aggrcons"
	"dart/internal/core"
	"dart/internal/docgen"
	"dart/internal/milp"
	"dart/internal/ocr"
	"dart/internal/relational"
	"dart/internal/scenario"
	"dart/internal/validate"
)

func TestBalanceSheetMetadataParses(t *testing.T) {
	md, err := scenario.BalanceSheet()
	if err != nil {
		t.Fatal(err)
	}
	if md.Schema.Name() != "BalanceSheet" {
		t.Errorf("schema = %s", md.Schema)
	}
	if got := len(md.Constraints()); got != 8 {
		t.Errorf("constraints = %d, want 8", got)
	}
	if got := len(md.Domains["Item"].Items()); got != len(docgen.BalanceItems) {
		t.Errorf("item domain = %d, want %d", got, len(docgen.BalanceItems))
	}
	if !md.Hierarchy.IsSpecializationOf("retained earnings", "Equity") {
		t.Error("hierarchy missing")
	}
}

func TestRandomBalanceSheetConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	years := docgen.RandomBalanceSheet(rng, 2001, 6)
	for _, y := range years {
		if !y.Consistent() {
			t.Errorf("year %d inconsistent: %+v", y.Year, y.Amounts)
		}
	}
	md, err := scenario.BalanceSheet()
	if err != nil {
		t.Fatal(err)
	}
	db := docgen.BalanceSheetDatabase(years)
	viols, err := aggrcons.Check(db, md.Constraints(), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Errorf("generated sheet violates constraints: %v", viols)
	}
	for _, k := range md.Constraints() {
		if !k.IsSteady(db) {
			t.Errorf("%s not steady", k.Name)
		}
	}
}

func TestBalanceSheetExtractionRoundTrip(t *testing.T) {
	md, err := scenario.BalanceSheet()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	years := docgen.RandomBalanceSheet(rng, 2003, 2)
	doc := docgen.BalanceSheetDocument(years)
	p := &dart.Pipeline{Metadata: md}
	res, err := p.Process(doc.HTML())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Acquisition.Consistent() {
		t.Fatalf("clean sheet inconsistent: %v", res.Acquisition.Violations)
	}
	want := docgen.BalanceSheetDatabase(years)
	got := res.Repaired.Relation("BalanceSheet")
	if got.Len() != want.Relation("BalanceSheet").Len() {
		t.Fatalf("tuples = %d, want %d", got.Len(), want.Relation("BalanceSheet").Len())
	}
	for i, tp := range got.Tuples() {
		if tp.String() != want.Relation("BalanceSheet").Tuples()[i].String() {
			t.Errorf("tuple %d: %s != %s", i, tp, want.Relation("BalanceSheet").Tuples()[i])
		}
	}
}

// setSheetCell overwrites one item's amount.
func setSheetCell(t *testing.T, db *relational.Database, year int64, item string, v int64) {
	t.Helper()
	r := db.Relation("BalanceSheet")
	for _, tp := range r.Tuples() {
		if tp.Get("Year") == relational.Int(year) && tp.Get("Item") == relational.String(item) {
			if err := r.SetValue(tp.ID(), "Amount", relational.Int(v)); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no cell %d/%s", year, item)
}

func TestBalanceSheetDeepCascadeViolations(t *testing.T) {
	// Corrupting a leaf ('cash') violates only its category constraint;
	// corrupting a subtotal ('total current assets') violates two levels;
	// corrupting 'total assets' violates the roll-up AND the accounting
	// equation.
	md, err := scenario.BalanceSheet()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	years := docgen.RandomBalanceSheet(rng, 2005, 1)

	cases := []struct {
		item       string
		violations int
	}{
		{"cash", 1},
		{"total current assets", 2},
		{"total assets", 2}, // TotalAssets roll-up + AccountingEquation
	}
	for _, tc := range cases {
		db := docgen.BalanceSheetDatabase(years)
		setSheetCell(t, db, 2005, tc.item, 999999)
		viols, err := aggrcons.Check(db, md.Constraints(), 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if len(viols) != tc.violations {
			t.Errorf("%s: violations = %d, want %d (%v)", tc.item, len(viols), tc.violations, viols)
		}
	}
}

func TestBalanceSheetRepairIsCardMinimal(t *testing.T) {
	md, err := scenario.BalanceSheet()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	years := docgen.RandomBalanceSheet(rng, 2006, 1)
	db := docgen.BalanceSheetDatabase(years)
	// A single leaf error: card-1 repair must exist.
	setSheetCell(t, db, 2006, "inventory", years[0].Amounts[2]+500)
	for _, solver := range []core.Solver{&core.MILPSolver{}, &core.CardinalitySearchSolver{}} {
		res, err := core.FindRepair(context.Background(), solver, db.Clone(), md.Constraints(), nil)
		if err != nil {
			t.Fatalf("%s: %v", solver.Name(), err)
		}
		if res.Status != milp.StatusOptimal || res.Card != 1 {
			t.Errorf("%s: status %v card %d, want optimal card 1", solver.Name(), res.Status, res.Card)
		}
	}
}

func TestBalanceSheetOracleRecoversDeepErrors(t *testing.T) {
	// Errors at three depths simultaneously; the oracle loop must recover
	// the exact sheet.
	md, err := scenario.BalanceSheet()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(59))
	years := docgen.RandomBalanceSheet(rng, 2007, 1)
	truth := docgen.BalanceSheetDatabase(years)
	db := docgen.BalanceSheetDatabase(years)
	setSheetCell(t, db, 2007, "cash", years[0].Amounts[0]+70)
	setSheetCell(t, db, 2007, "total equity", years[0].Amounts[15]+300)
	s := &validate.Session{
		DB:          db,
		Constraints: md.Constraints(),
		Solver:      &core.MILPSolver{},
		Operator:    &validate.OracleOperator{Truth: truth},
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := out.Repaired.Relation("BalanceSheet")
	for i, tp := range got.Tuples() {
		if tp.String() != truth.Relation("BalanceSheet").Tuples()[i].String() {
			t.Errorf("tuple %d: %s, want %s", i, tp, truth.Relation("BalanceSheet").Tuples()[i])
		}
	}
	if out.Iterations > 6 {
		t.Errorf("iterations = %d, expected few", out.Iterations)
	}
}

func TestBalanceSheetEndToEndWithNoise(t *testing.T) {
	md, err := scenario.BalanceSheet()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	years := docgen.RandomBalanceSheet(rng, 2008, 2)
	truth := docgen.BalanceSheetDatabase(years)
	doc := docgen.BalanceSheetDocument(years)
	noisy, corr := ocr.Corrupt(doc, ocr.Options{
		NumericErrors: 2,
		StringRate:    0.08,
		EligibleNumeric: func(table, row, col int, text string) bool {
			return !(row == 0 && col == 0)
		},
	}, rng)
	if len(corr) == 0 {
		t.Fatal("no corruption")
	}
	p := &dart.Pipeline{Metadata: md, Operator: &validate.OracleOperator{Truth: truth}}
	res, err := p.Process(noisy.ScanText())
	if err != nil {
		t.Fatal(err)
	}
	got := res.Repaired.Relation("BalanceSheet")
	want := truth.Relation("BalanceSheet")
	if got.Len() != want.Len() {
		t.Fatalf("tuples = %d, want %d", got.Len(), want.Len())
	}
	for i, tp := range got.Tuples() {
		if tp.String() != want.Tuples()[i].String() {
			t.Errorf("tuple %d: %s, want %s", i, tp, want.Tuples()[i])
		}
	}
}
