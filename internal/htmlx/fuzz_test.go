package htmlx_test

import (
	"math/rand"
	"testing"

	"dart/internal/docgen"
	"dart/internal/htmlx"
)

// FuzzParseTables feeds arbitrary bytes through ParseTables, Grid and
// String: none may panic, and every grid must be rectangular. The corpus
// is seeded with the generated documents of the three built-in scenarios
// and the colspan bomb.
func FuzzParseTables(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, doc := range []*docgen.Document{
		docgen.RunningExampleDocument(),
		docgen.BudgetDocument(docgen.RandomBudget(rng, 2000, 2)),
		docgen.OrdersDocument(docgen.RandomOrders(rng, 4)),
		docgen.BalanceSheetDocument(docgen.RandomBalanceSheet(rng, 2000, 2)),
	} {
		f.Add([]byte(doc.HTML()))
	}
	f.Add([]byte(`<table><tr><td colspan="5000000">x</td></tr></table>`))
	f.Add([]byte(`<table><tr><td rowspan="3" colspan="2">a</td><td>b</td></tr><tr><td>c</td></tr></table>`))
	f.Fuzz(func(t *testing.T, src []byte) {
		for _, tab := range htmlx.ParseTables(string(src)) {
			grid := tab.Grid()
			for r, row := range grid {
				if len(row) != len(grid[0]) {
					t.Fatalf("row %d has width %d, row 0 has %d", r, len(row), len(grid[0]))
				}
			}
			_ = tab.String()
		}
	})
}
