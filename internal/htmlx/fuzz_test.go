package htmlx_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"dart/internal/convert"
	"dart/internal/docgen"
	"dart/internal/htmlx"
)

// gridBomb is 36 KB of HTML whose single table pads 4000 empty rows to the
// width of one row of 4000 cells: 16 million grid positions.
func gridBomb() string {
	return "<table><tr>" + strings.Repeat("<td>x", 4000) + strings.Repeat("<tr>", 4000) + "</table>"
}

// FuzzParseTables feeds arbitrary bytes through ParseTables, ScanTables,
// Grid and String: none may panic, every grid must be rectangular,
// ScanTables must give the grids of ParseTables, and the tables
// and grids must equal those of the reference tokenizer, parser and grid
// expansion in reference_test.go, or both exceed the grid bound. The corpus
// is seeded with the generated documents of the three built-in scenarios,
// the colspan bomb, the grid bomb, a 50-year budget as HTML and as its
// scan-text conversion, and a colspan passing over a rowspan.
//
// Inputs on which lower-casing changes the encoded length of a rune are
// compared for no panic and rectangular grids only: there the reference
// itself is wrong (see lowerKeepsOffsets).
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
	f.Add([]byte(`<p>a &amp; b<script>x</SCRIPT>c<style>d</style >e< >f</>g<!-- h -->i<!x>j<?k>l<td`))
	f.Add([]byte(gridBomb()))
	large := docgen.BudgetDocument(docgen.RandomBudget(rng, 2000, 50))
	f.Add([]byte(large.HTML()))
	f.Add([]byte(convert.ScanTextToHTML(large.ScanText())))
	f.Add([]byte(`<table><tr><td>a</td><td rowspan="3">b</td></tr><tr><td colspan="2">c</td></tr><tr><td>d</td></tr></table>`))
	f.Fuzz(func(t *testing.T, src []byte) {
		s := string(src)
		if got, want := htmlx.CollapseSpace(s), refCollapseSpace(s); got != want {
			t.Fatalf("CollapseSpace = %q, want %q", got, want)
		}
		tables := htmlx.ParseTables(s)
		var want []*refTable
		if lowerKeepsOffsets(s) {
			if want = refParseTables(s); len(tables) != len(want) {
				t.Fatalf("ParseTables returned %d tables, the reference %d", len(tables), len(want))
			}
		}
		// The grids ScanTables gives, from buffers it reuses, must be those
		// of ParseTables' copies.
		var scanned [][][]htmlx.GridCell
		htmlx.ScanTables(s, func(tab *htmlx.Table) error {
			grid, _ := tab.Grid()
			scanned = append(scanned, grid)
			return nil
		})
		if len(scanned) != len(tables) {
			t.Fatalf("ScanTables gave %d tables, ParseTables %d", len(scanned), len(tables))
		}
		for i, tab := range tables {
			grid, err := tab.Grid()
			_ = tab.String()
			if !slices.EqualFunc(grid, scanned[i], slices.Equal[[]htmlx.GridCell]) {
				t.Fatalf("table %d: ScanTables grid %+v, ParseTables grid %+v", i, scanned[i], grid)
			}
			if err == nil {
				for r, row := range grid {
					if len(row) != len(grid[0]) {
						t.Fatalf("table %d: row %d has width %d, row 0 has %d", i, r, len(row), len(grid[0]))
					}
				}
			}
			if want == nil {
				continue
			}
			wantGrid, over := refGrid(want[i], refMaxGridCells)
			switch {
			case over != (err != nil):
				t.Fatalf("table %d: Grid error %v, reference over the bound: %v", i, err, over)
			case !slices.EqualFunc(grid, wantGrid, slices.Equal[[]htmlx.GridCell]):
				t.Fatalf("table %d: Grid = %+v, want %+v", i, grid, wantGrid)
			}
		}
	})
}

// lowerKeepsOffsets reports whether strings.ToLower maps every rune of s to
// one of the same encoded length. The reference tokenizer found the end of
// a script or style element by searching a lower-cased copy of the rest of
// the document, and used the offset it found in the original; on other
// inputs (invalid UTF-8, 'İ', the Kelvin sign) that offset was wrong, so
// there the reference is no specification.
func lowerKeepsOffsets(s string) bool {
	for _, r := range s {
		if r == utf8.RuneError || utf8.RuneLen(unicode.ToLower(r)) != utf8.RuneLen(r) {
			return false
		}
	}
	return true
}
