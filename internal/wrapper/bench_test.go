package wrapper_test

import (
	"math/rand"
	"testing"

	"dart/internal/docgen"
	"dart/internal/scenario"
)

// BenchmarkExtract wraps one clean 50-year cash budget (500 value rows,
// 50 tables), the document size of perfbench's repair-large workload.
func BenchmarkExtract(b *testing.B) {
	md, err := scenario.CashBudget()
	if err != nil {
		b.Fatal(err)
	}
	html := docgen.BudgetDocument(docgen.RandomBudget(rand.New(rand.NewSource(7331)), 2000, 50)).HTML()
	w := md.NewWrapper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instances, _, err := w.Extract(html)
		if err != nil {
			b.Fatal(err)
		}
		if len(instances) != 500 {
			b.Fatalf("instances = %d, want 500", len(instances))
		}
	}
}
