package docgen

import (
	"math/rand"
	"strings"
	"testing"

	"dart/internal/htmlx"
	"dart/internal/runningex"
)

func TestRunningExampleDocumentMatchesFig1(t *testing.T) {
	d := RunningExampleDocument()
	if len(d.Tables) != 2 {
		t.Fatalf("tables = %d, want 2 (one per year)", len(d.Tables))
	}
	html := d.HTML()
	for _, want := range []string{
		`rowspan="10">2003`, `rowspan="10">2004`,
		`rowspan="4">Receipts`, `rowspan="4">Disbursements`, `rowspan="2">Balance`,
		"beginning cash", "total cash receipts", "<td>220</td>", "<td>90</td>",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	// The grid expansion of the rendered HTML recovers 10 rows x 4 cols per
	// table with the year visible in every row.
	tables := htmlx.ParseTables(html)
	if len(tables) != 2 {
		t.Fatalf("parsed tables = %d", len(tables))
	}
	grid, err := tables[0].Grid()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 10 || len(grid[0]) != 4 {
		t.Fatalf("grid = %dx%d, want 10x4", len(grid), len(grid[0]))
	}
	for r := range grid {
		if grid[r][0].Text != "2003" {
			t.Errorf("row %d year = %q", r, grid[r][0].Text)
		}
	}
	if grid[3][2].Text != "total cash receipts" || grid[3][3].Text != "220" {
		t.Errorf("row 3 = %q/%q", grid[3][2].Text, grid[3][3].Text)
	}
}

func TestRunningExampleBudgetIsConsistent(t *testing.T) {
	for _, y := range RunningExampleBudget() {
		if !y.Consistent() {
			t.Errorf("year %d inconsistent", y.Year)
		}
	}
}

func TestRandomBudgetConsistencyAndChaining(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	years := RandomBudget(rng, 2000, 8)
	if len(years) != 8 {
		t.Fatalf("years = %d", len(years))
	}
	for i, y := range years {
		if !y.Consistent() {
			t.Errorf("year %d inconsistent: %+v", y.Year, y.Values)
		}
		if i > 0 && y.Values[idxBeginningCash] != years[i-1].Values[idxEndingCashBalance] {
			t.Errorf("year %d beginning cash %d != previous ending %d",
				y.Year, y.Values[idxBeginningCash], years[i-1].Values[idxEndingCashBalance])
		}
	}
	// Determinism under the same seed.
	again := RandomBudget(rand.New(rand.NewSource(11)), 2000, 8)
	for i := range years {
		if years[i] != again[i] {
			t.Fatal("RandomBudget is not deterministic for a fixed seed")
		}
	}
}

func TestBudgetDatabaseMatchesRunningExampleFixture(t *testing.T) {
	db := BudgetDatabase(RunningExampleBudget())
	want := runningex.CorrectDatabase()
	got := db.Relation("CashBudget")
	wantRel := want.Relation("CashBudget")
	if got.Len() != wantRel.Len() {
		t.Fatalf("tuples = %d, want %d", got.Len(), wantRel.Len())
	}
	for i, tp := range got.Tuples() {
		if tp.String() != wantRel.Tuples()[i].String() {
			t.Errorf("tuple %d: %s != %s", i, tp, wantRel.Tuples()[i])
		}
	}
	if !db.IsMeasure("CashBudget", "Value") {
		t.Error("Value not designated as measure")
	}
}

func TestScanTextRendersSpansRepeated(t *testing.T) {
	d := RunningExampleDocument()
	txt := d.ScanText()
	lines := strings.Split(strings.TrimSpace(txt), "\n")
	// Title + 10 data rows + blank separator + 10 data rows.
	if len(lines) != 22 {
		t.Fatalf("lines = %d:\n%s", len(lines), txt)
	}
	if !strings.HasPrefix(lines[0], "== Cash budgets") {
		t.Errorf("title line = %q", lines[0])
	}
	// Every data row repeats the year and section.
	if !strings.HasPrefix(lines[1], "2003 | Receipts | beginning cash | 20") {
		t.Errorf("first data line = %q", lines[1])
	}
	if !strings.HasPrefix(lines[10], "2003 | Balance | ending cash balance | 80") {
		t.Errorf("line 10 = %q", lines[10])
	}
}

func TestDocumentCloneIsDeep(t *testing.T) {
	d := RunningExampleDocument()
	c := d.Clone()
	c.Tables[0].Rows[0][0].Text = "9999"
	if d.Tables[0].Rows[0][0].Text == "9999" {
		t.Error("Clone is shallow")
	}
}

func TestCellsIteration(t *testing.T) {
	d := RunningExampleDocument()
	count := 0
	d.Cells(func(_, _, _ int, c *Cell) { count++ })
	// Per year table: 10 rows; row 0 has 4 cells (year, section, sub, value),
	// rows 4 and 8 have 3, others 2: 4 + 3*2 + 2*7 = 24 per table.
	if count != 48 {
		t.Errorf("cells = %d, want 48", count)
	}
}

func TestRandomOrdersConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	orders := RandomOrders(rng, 20)
	if len(orders) != 20 {
		t.Fatal("order count")
	}
	for _, o := range orders {
		total := int64(0)
		var declared int64
		seen := map[string]bool{}
		for _, l := range o.Lines {
			switch l.Kind {
			case "line":
				total += l.Amount
				if seen[l.Product] {
					t.Errorf("%s: duplicate product %s", o.ID, l.Product)
				}
				seen[l.Product] = true
			case "total":
				declared = l.Amount
			}
		}
		if total != declared {
			t.Errorf("%s: lines sum %d, total %d", o.ID, total, declared)
		}
	}
}

func TestOrdersDocumentAndDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	orders := RandomOrders(rng, 3)
	doc := OrdersDocument(orders)
	html := doc.HTML()
	if !strings.Contains(html, "PO-0001") || !strings.Contains(html, "order total") {
		t.Error("orders HTML incomplete")
	}
	tables := htmlx.ParseTables(html)
	if len(tables) != 1 {
		t.Fatal("table count")
	}
	grid, err := tables[0].Grid()
	if err != nil {
		t.Fatal(err)
	}
	totalLines := 0
	for _, o := range orders {
		totalLines += len(o.Lines)
	}
	if len(grid) != totalLines {
		t.Errorf("grid rows = %d, want %d", len(grid), totalLines)
	}
	db := OrdersDatabase(orders)
	if db.Relation("Orders").Len() != totalLines {
		t.Errorf("tuples = %d, want %d", db.Relation("Orders").Len(), totalLines)
	}
	if !db.IsMeasure("Orders", "Amount") {
		t.Error("Amount not a measure")
	}
}
