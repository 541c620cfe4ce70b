package dart_test

import (
	"context"
	"math/rand"
	"testing"

	"dart/internal/docgen"
	"dart/internal/ocr"
)

// maxAllocsPerLargeDocument bounds the allocations of one 50-year cash
// budget with 4 misreads through Pipeline.ProcessContext. The document
// takes about 1,950; an instance, its cells, a lower-cased query and a
// cloned literal per matched row took it to about 4,750, the HTML
// tokenizer's token per tag, attribute map per spanned cell and slice per
// row to about 7,800, and map-keyed rows, a slice per evaluator bucket
// and a key formatted for every duplicate ground to about 16,900.
const maxAllocsPerLargeDocument = 2500

// TestProcessLargeDocumentAllocations holds the per-document allocation
// count of a long document under maxAllocsPerLargeDocument. The race
// detector changes allocation counts, so it runs without it only.
func TestProcessLargeDocumentAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	p := cashBudgetPipeline(t)
	rng := rand.New(rand.NewSource(1))
	doc := docgen.BudgetDocument(docgen.RandomBudget(rng, 2000, 50))
	noisy, _ := ocr.Corrupt(doc, ocr.Options{
		NumericErrors:   4,
		EligibleNumeric: func(table, row, col int, text string) bool { return !(row == 0 && col == 0) },
	}, rng)
	src := noisy.HTML()
	res, err := p.ProcessContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repair == nil || res.Repair.Card() == 0 {
		t.Fatal("the document needs no repair; the bound would not cover grounding and solving")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.ProcessContext(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per document", allocs)
	if allocs > maxAllocsPerLargeDocument {
		t.Fatalf("%.0f allocations per document, want at most %d", allocs, maxAllocsPerLargeDocument)
	}
}
