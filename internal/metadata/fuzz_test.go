package metadata_test

import (
	"runtime"
	"testing"

	"dart/internal/aggrcons"
	"dart/internal/metadata"
	"dart/internal/relational"
	"dart/internal/scenario"
)

// FuzzParseMetadata feeds arbitrary text to Parse, seeded with the three
// scenario specs. Parse must not panic, nor allocate more than 1 MiB plus
// 512 B per input byte, so no allocation is sized from a length the text
// claims. Every spec that parses must pass Validate again and yield a
// wrapper, a generator and constraints that run: the wrapper extracts a
// small document, the generator turns the instances into a database of the
// declared relation, and the constraints are checked on it. Extraction,
// generation and the check may fail with an error, never with a panic.
func FuzzParseMetadata(f *testing.F) {
	for _, src := range []string{scenario.CashBudgetSource(), scenario.CatalogSource(), scenario.BalanceSheetSource()} {
		f.Add(src)
	}
	f.Add("relation R(A: Z)\nmeasure R.A\npattern P:\n  cell A: Integer\nmap A from cell A\n")
	f.Fuzz(func(t *testing.T, src string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		md, err := metadata.Parse(src)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+512*len(src)); grew > limit {
			t.Fatalf("parsing %d bytes allocated %d bytes (limit %d)", len(src), grew, limit)
		}
		if err != nil {
			return
		}
		if err := md.Validate(); err != nil {
			t.Fatalf("a parsed spec fails Validate: %v", err)
		}
		instances, _, err := md.NewWrapper().Extract(sampleDocument)
		if err != nil {
			return
		}
		db, _, err := md.NewGenerator().Generate(instances)
		if err != nil {
			// An empty database of the declared relation still grounds.
			db = relational.NewDatabase()
			if _, err := db.AddRelation(md.Schema); err != nil {
				return
			}
		}
		acs := md.Constraints()
		for _, k := range acs {
			_ = k.String()
		}
		_, _ = aggrcons.Check(db, acs, 1e-9)
	})
}

// sampleDocument is a small table in the shape of the scenarios' documents.
const sampleDocument = `<html><body><table>
<tr><td>Year</td><td>Section</td><td>Subsection</td><td>Value</td></tr>
<tr><td>2003</td><td>Receipts</td><td>cash sales</td><td>100</td></tr>
<tr><td>2003</td><td>Receipts</td><td>receivables</td><td>120</td></tr>
<tr><td>2003</td><td>Receipts</td><td>total cash receipts</td><td>220</td></tr>
<tr><td>O-1</td><td>widget</td><td>30</td></tr>
<tr><td>O-1</td><td>order total</td><td>30</td></tr>
</table></body></html>`
