package htmlx_test

import (
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"dart/internal/docgen"
	"dart/internal/htmlx"
)

// gridBomb is 36 KB of HTML whose single table pads 4000 empty rows to the
// width of one row of 4000 cells: 16 million grid positions.
func gridBomb() string {
	return "<table><tr>" + strings.Repeat("<td>x", 4000) + strings.Repeat("<tr>", 4000) + "</table>"
}

// FuzzParseTables feeds arbitrary bytes through Tokenize, ParseTables,
// Grid and String: none may panic, every grid must be rectangular, and the
// tokens, tables and grids must equal those of the reference tokenizer and
// parser in reference_test.go. The corpus is seeded with the generated
// documents of the three built-in scenarios, the colspan bomb and the grid
// bomb.
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
	f.Fuzz(func(t *testing.T, src []byte) {
		s := string(src)
		if got, want := htmlx.CollapseSpace(s), refCollapseSpace(s); got != want {
			t.Fatalf("CollapseSpace = %q, want %q", got, want)
		}
		tables := htmlx.ParseTables(s)
		if lowerKeepsOffsets(s) {
			if got, want := htmlx.Tokenize(s), refTokenize(s); !equalTokens(got, want) {
				t.Fatalf("Tokenize = %+v, want %+v", got, want)
			}
			if want := refParseTables(s); !equalTables(tables, want) {
				t.Fatalf("ParseTables = %+v, want %+v", tables, want)
			}
		}
		for _, tab := range tables {
			grid, err := tab.Grid()
			_ = tab.String()
			if err != nil {
				continue
			}
			for r, row := range grid {
				if len(row) != len(grid[0]) {
					t.Fatalf("row %d has width %d, row 0 has %d", r, len(row), len(grid[0]))
				}
			}
			if want := refGrid(tab); !slices.EqualFunc(grid, want, slices.Equal[[]htmlx.GridCell]) {
				t.Fatalf("Grid = %+v, want %+v", grid, want)
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

// equalTokens compares token streams; maps.Equal counts the nil Attrs of a
// tag without attributes equal to the reference's empty map.
func equalTokens(a, b []htmlx.Token) bool {
	return slices.EqualFunc(a, b, func(x, y htmlx.Token) bool {
		return x.Kind == y.Kind && x.Name == y.Name && x.Text == y.Text &&
			x.SelfClosing == y.SelfClosing && maps.Equal(x.Attrs, y.Attrs)
	})
}

func equalTables(a, b []*htmlx.Table) bool {
	return slices.EqualFunc(a, b, func(x, y *htmlx.Table) bool {
		return slices.EqualFunc(x.Rows, y.Rows, slices.Equal[[]htmlx.Cell])
	})
}
