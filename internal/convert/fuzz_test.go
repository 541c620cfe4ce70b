package convert

import (
	"math/rand"
	"testing"

	"dart/internal/docgen"
)

// FuzzScanTextToHTML feeds arbitrary text through ScanTextToHTML: it must
// not panic and must write the same bytes as the converter it replaced
// (refScanTextToHTML). Detect must also classify the text as refDetect
// does. The corpus is seeded with the scan texts of the
// three built-in scenarios and with titles, captions, blank lines and
// escapes in odd places.
func FuzzScanTextToHTML(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, doc := range []*docgen.Document{
		docgen.RunningExampleDocument(),
		docgen.BudgetDocument(docgen.RandomBudget(rng, 2000, 3)),
		docgen.OrdersDocument(docgen.RandomOrders(rng, 4)),
		docgen.BalanceSheetDocument(docgen.RandomBalanceSheet(rng, 2000, 2)),
	} {
		f.Add(doc.ScanText())
	}
	for _, s := range []string{
		"",
		"\n",
		"a",
		"== T ==\n-- C --\n\n1 | 2\n== U ==\n",
		"-- only a caption --\n",
		"== ==\n--  --\n | |\n",
		"a & b | <c> | \"d\"\r\n x\u0085|y\n-- <cap> --\nz",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := Detect(text), refDetect(text); got != want {
			t.Fatalf("Detect(%q) = %v, want %v", text, got, want)
		}
		if got, want := ScanTextToHTML(text), refScanTextToHTML(text); got != want {
			t.Fatalf("ScanTextToHTML(%q) =\n%s\nwant\n%s", text, got, want)
		}
	})
}

// TestScanTextToHTMLAllocs: converting a 50-year budget writes into one
// buffer sized from the text.
func TestScanTextToHTMLAllocs(t *testing.T) {
	text := docgen.BudgetDocument(docgen.RandomBudget(rand.New(rand.NewSource(1)), 2000, 50)).ScanText()
	if n := testing.AllocsPerRun(20, func() { ScanTextToHTML(text) }); n > 1 {
		t.Errorf("ScanTextToHTML allocated %v times on %d bytes of text, want once", n, len(text))
	}
}
