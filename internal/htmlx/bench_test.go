package htmlx_test

import (
	"math/rand"
	"testing"

	"dart/internal/convert"
	"dart/internal/docgen"
	"dart/internal/htmlx"
	"dart/internal/ocr"
)

// largeDocuments renders n 50-year cash budgets with 4 misreads each, as
// perfbench's repair-large workload does at the same seed: even documents
// as HTML, odd ones as scan text converted to HTML.
func largeDocuments(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	eligible := func(table, row, col int, text string) bool { return !(row == 0 && col == 0) }
	out := make([]string, n)
	for i := range out {
		doc := docgen.BudgetDocument(docgen.RandomBudget(rng, 2000, 50))
		noisy, _ := ocr.Corrupt(doc, ocr.Options{NumericErrors: 4, EligibleNumeric: eligible}, rng)
		out[i] = noisy.HTML()
		if i%2 == 1 {
			out[i] = convert.ScanTextToHTML(noisy.ScanText())
		}
	}
	return out
}

// BenchmarkParseTables parses and expands every table of one repair-large
// document per op, cycling through the 64 documents of the workload: with
// ParseTables, which keeps every table, and with ScanTables, which Extract
// uses and which keeps none.
func BenchmarkParseTables(b *testing.B) {
	docs := largeDocuments(1, 64)
	grid := func(tab *htmlx.Table) error {
		_, err := tab.Grid()
		return err
	}
	b.Run("ParseTables", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, tab := range htmlx.ParseTables(docs[i%len(docs)]) {
				if err := grid(tab); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("ScanTables", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := htmlx.ScanTables(docs[i%len(docs)], grid); err != nil {
				b.Fatal(err)
			}
		}
	})
}
