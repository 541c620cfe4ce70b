package htmlx

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func mustGrid(t *testing.T, tab *Table) [][]GridCell {
	t.Helper()
	grid, err := tab.Grid()
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

// cellTexts returns the texts of the grid positions of tab, row by row,
// with "·" for padding.
func cellTexts(t *testing.T, tab *Table) [][]string {
	t.Helper()
	var out [][]string
	for _, row := range mustGrid(t, tab) {
		var texts []string
		for _, c := range row {
			if !c.Present {
				texts = append(texts, "·")
				continue
			}
			texts = append(texts, c.Text)
		}
		out = append(out, texts)
	}
	return out
}

// onlyCell parses src, which must hold one table of one cell, and returns
// that cell's text.
func onlyCell(t *testing.T, src string) string {
	t.Helper()
	tables := ParseTables(src)
	if len(tables) != 1 {
		t.Fatalf("%d tables, want 1", len(tables))
	}
	grid := mustGrid(t, tables[0])
	if len(grid) != 1 || len(grid[0]) != 1 {
		t.Fatalf("grid %v, want one cell", cellTexts(t, tables[0]))
	}
	return grid[0][0].Text
}

// TestTokenizeBasics: attributes may be quoted or not, their names are
// case-insensitive, unknown ones are ignored and of repeated ones the last
// counts; character references are decoded in cell text.
func TestTokenizeBasics(t *testing.T) {
	tables := ParseTables(`<table class="x"><tr><td colspan=2>A &amp; B</td><td CLASS='y' COLSPAN = "3" colspan=1>c</TD></tr></table>`)
	if len(tables) != 1 {
		t.Fatalf("tables = %d, want 1", len(tables))
	}
	grid := mustGrid(t, tables[0])
	want := []GridCell{
		{Text: "A & B", Present: true},
		{Text: "A & B", Spanned: true, Present: true},
		{Text: "c", OriginCol: 2, Present: true},
	}
	if len(grid) != 1 || !slices.Equal(grid[0], want) {
		t.Errorf("grid = %+v, want one row %+v", grid, want)
	}
}

// TestTokenizeCommentsDoctypeScript: doctypes, declarations, comments and
// the bodies of script and style elements contribute no text and no cells,
// whatever markup they contain.
func TestTokenizeCommentsDoctypeScript(t *testing.T) {
	src := `<!DOCTYPE html><table><tr><td><?xml x?><!-- hidden <td>junk</td> --><script>if (a<b) x("</td>");</script><STYLE>td{}</style><p>ok</p></td></tr></table>`
	if got := onlyCell(t, src); got != "ok" {
		t.Errorf("cell = %q, want %q", got, "ok")
	}
	// The closer of a script element is matched in any ASCII letter case,
	// and a name outside ASCII is lower-cased first: 'İ' becomes 'i'.
	if got := onlyCell(t, `<table><td>a<SCRIPT type=x>b</td></sCrIpT >c<scrİpt>d</td></script>e`); got != "ace" {
		t.Errorf("cell = %q, want %q", got, "ace")
	}
	// An unterminated comment or declaration ends the input.
	if got := onlyCell(t, `<table><td>a<!-- b</td><td>c`); got != "a" {
		t.Errorf("after an open comment: cell = %q, want %q", got, "a")
	}
	if got := onlyCell(t, `<table><td>a<?b`); got != "a" {
		t.Errorf("after an open declaration: cell = %q, want %q", got, "a")
	}
	// A declaration ends at the first '>'.
	if got := cellTexts(t, ParseTables(`<table><td>a<!b</td><td>c`)[0]); !reflect.DeepEqual(got, [][]string{{"a", "c"}}) {
		t.Errorf("after a declaration: grid %q, want one row a, c", got)
	}
}

// TestTokenizeScriptTagsLinear: skipping script and style elements costs
// allocation in proportion to the input, not to the number of elements
// times the input. The trailing upper-case byte defeats any shortcut for
// input that is already lower case.
func TestTokenizeScriptTagsLinear(t *testing.T) {
	src := "<table><tr><td>" + strings.Repeat("<script>x</script><style>y</STYLE>", 2000) + "X"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ParseTables(src)
	runtime.ReadMemStats(&after)
	if got := onlyCell(t, src); got != "X" {
		t.Fatalf("cell = %q, want X", got)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(src)) {
		t.Errorf("ParseTables allocated %d bytes on %d bytes of input, want at most 64 per input byte", alloc, len(src))
	}
}

// TestTokenizeSelfClosingAndBadInput: a self-closing br is a space and a
// self-closing script skips nothing; empty tags are dropped; a '<' with no
// '>' after it is text, as is the rest of the input.
func TestTokenizeSelfClosingAndBadInput(t *testing.T) {
	src := `<table><tr><td>a<br/>b<img src='a.png'/>c< >d</>e<script/>f<tag`
	if got := onlyCell(t, src); got != "a bcdef<tag" {
		t.Errorf("cell = %q, want %q", got, "a bcdef<tag")
	}
	// <table/> opens a table and <td .../> a cell, whose colspan counts.
	if tables := ParseTables(`<table/><td colspan=2/>x`); len(tables) != 1 {
		t.Fatalf("tables = %d, want 1", len(tables))
	} else if got := cellTexts(t, tables[0]); !reflect.DeepEqual(got, [][]string{{"x", "x"}}) {
		t.Errorf("self-closing table and cell: grid %q, want one row x, x", got)
	}
	// Must not panic; none of these holds a table.
	for _, src := range []string{"", "<", "<!---", "<td>x</td>", "</table>"} {
		if tables := ParseTables(src); len(tables) != 0 {
			t.Errorf("ParseTables(%q) = %d tables, want 0", src, len(tables))
		}
	}
	if tables := ParseTables("<table><!---"); len(tables) != 1 || mustGrid(t, tables[0]) != nil {
		t.Errorf("an open table before an open comment: %d tables, want 1 without rows", len(tables))
	}
}

func TestDecodeEntities(t *testing.T) {
	tests := []struct{ in, want string }{
		{"A &amp; B", "A & B"},
		{"&lt;x&gt;", "<x>"},
		{"&quot;q&quot;&apos;", `"q"'`},
		{"&#65;&#x42;", "AB"},
		{"&nbsp;", " "},
		{"&unknown;", "&unknown;"},
		{"no entities", "no entities"},
		{"&#xZZ;", "&#xZZ;"},
		{"dangling &", "dangling &"},
	}
	for _, tc := range tests {
		if got := DecodeEntities(tc.in); got != tc.want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestEscapeTextRoundTrip(t *testing.T) {
	in := `a < b & "c" > d`
	if got := DecodeEntities(EscapeText(in)); got != in {
		t.Errorf("round trip = %q", got)
	}
}

func TestEscapeTextOutput(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`&<>"'`, `&amp;&lt;&gt;&quot;'`},
		{"plain text 2003", "plain text 2003"},
		{"", ""},
	} {
		if got := EscapeText(tc.in); got != tc.want {
			t.Errorf("EscapeText(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestEscapeTextAllocs(t *testing.T) {
	// The escaper is shared: plain text costs nothing, escaped text only
	// its output buffer.
	if n := testing.AllocsPerRun(100, func() { EscapeText("net cash inflow") }); n > 0 {
		t.Errorf("EscapeText(plain) allocs = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { EscapeText(`a < b & "c"`) }); n > 2 {
		t.Errorf("EscapeText(escaped) allocs = %v, want <= 2", n)
	}
}

func TestParseSimpleTable(t *testing.T) {
	src := `
<table>
 <tr><th>Year</th><th>Value</th></tr>
 <tr><td>2003</td><td>220</td></tr>
</table>`
	tables := ParseTables(src)
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	grid := mustGrid(t, tables[0])
	if len(grid) != 2 || len(grid[0]) != 2 {
		t.Fatalf("grid = %+v", grid)
	}
	if !grid[0][0].Header || !grid[0][1].Header || grid[1][0].Header {
		t.Error("header flags wrong")
	}
	if grid[1][0].Text != "2003" || grid[1][1].Text != "220" {
		t.Errorf("cell text = %+v", grid[1])
	}
}

func TestParseTableRowspanGrid(t *testing.T) {
	// The Fig. 1 pattern: a Year cell spanning all data rows.
	src := `
<table>
 <tr><td rowspan="3">2003</td><td>Receipts</td><td>beginning cash</td><td>20</td></tr>
 <tr><td rowspan="2">Receipts</td><td>cash sales</td><td>100</td></tr>
 <tr><td>receivables</td><td>120</td></tr>
</table>`
	tables := ParseTables(src)
	if len(tables) != 1 {
		t.Fatal("table count")
	}
	grid := mustGrid(t, tables[0])
	if len(grid) != 3 {
		t.Fatalf("grid rows = %d", len(grid))
	}
	// Row 1 and 2 must see the year via the span.
	if grid[1][0].Text != "2003" || !grid[1][0].Spanned {
		t.Errorf("grid[1][0] = %+v", grid[1][0])
	}
	if grid[2][0].Text != "2003" || grid[2][0].OriginRow != 0 {
		t.Errorf("grid[2][0] = %+v", grid[2][0])
	}
	if grid[2][1].Text != "Receipts" || !grid[2][1].Spanned {
		t.Errorf("grid[2][1] = %+v", grid[2][1])
	}
	if grid[1][2].Text != "cash sales" || grid[1][2].Spanned {
		t.Errorf("grid[1][2] = %+v", grid[1][2])
	}
	// All rows have the same width.
	w := len(grid[0])
	for r, row := range grid {
		if len(row) != w {
			t.Errorf("row %d width %d != %d", r, len(row), w)
		}
	}
}

func TestParseTableColspan(t *testing.T) {
	src := `
<table>
 <tr><td colspan="2">wide</td><td>x</td></tr>
 <tr><td>a</td><td>b</td><td>c</td></tr>
</table>`
	grid := mustGrid(t, ParseTables(src)[0])
	if grid[0][0].Text != "wide" || grid[0][1].Text != "wide" || !grid[0][1].Spanned {
		t.Errorf("colspan expansion: %+v", grid[0])
	}
	if grid[0][2].Text != "x" {
		t.Errorf("cell after colspan: %+v", grid[0][2])
	}
	if grid[0][1].OriginCol != 0 {
		t.Errorf("origin col = %d", grid[0][1].OriginCol)
	}
}

// TestParseTableSkippedRowspan: a rowspan covers a position only when a
// later row reaches its origin column with no source cell placed over it.
// Row 1's colspan passes over the rowspan of b, which therefore still
// covers row 2.
func TestParseTableSkippedRowspan(t *testing.T) {
	src := `<table><tr><td>a</td><td rowspan="3">b</td></tr><tr><td colspan="2">c</td></tr><tr><td>d</td></tr></table>`
	grid := mustGrid(t, ParseTables(src)[0])
	want := [][]GridCell{
		{{Text: "a", Present: true}, {Text: "b", OriginCol: 1, Present: true}},
		{{Text: "c", OriginRow: 1, Present: true}, {Text: "c", OriginRow: 1, Spanned: true, Present: true}},
		{{Text: "d", OriginRow: 2, Present: true}, {Text: "b", OriginCol: 1, Spanned: true, Present: true}},
	}
	if !slices.EqualFunc(grid, want, slices.Equal[[]GridCell]) {
		t.Errorf("grid = %+v, want %+v", grid, want)
	}
}

// TestGridBound: a table may expand to exactly maxGridCells positions, by
// its widest row times its rows; one position more is refused.
func TestGridBound(t *testing.T) {
	row := func(width int) string {
		return "<tr>" + strings.Repeat(`<td colspan="1000">x`, width/1000) + fmt.Sprintf(`<td colspan="%d">y`, width%1000)
	}
	for _, tc := range []struct {
		src  string
		fits bool
	}{
		{"<table>" + row(maxGridCells), true},
		{"<table>" + row(maxGridCells+1), false},
		{"<table>" + row(maxGridCells/2) + "<tr>", true},
		{"<table>" + row(maxGridCells/2+1) + "<tr>", false},
		{"<table><tr>" + row(maxGridCells/2+1), false},
	} {
		tables := ParseTables(tc.src)
		if len(tables) != 1 {
			t.Fatalf("%d tables, want 1", len(tables))
		}
		grid, err := tables[0].Grid()
		if fits := err == nil; fits != tc.fits {
			t.Errorf("%d-byte table: Grid error %v, want fitting: %v", len(tc.src), err, tc.fits)
		} else if fits && len(grid)*len(grid[0]) != maxGridCells {
			t.Errorf("%d-byte table: grid of %d rows of %d, want %d positions", len(tc.src), len(grid), len(grid[0]), maxGridCells)
		}
	}
}

// TestTablesKeepSourceCellsOnly: a table of 262 cells of colspan 1000 is
// 4.5 KB of HTML and expands to 262,000 positions, just inside the bound:
// 10 MiB of GridCells. Sixteen of them, side by side or nested in one
// another so that all are open together, must cost ParseTables and
// ScanTables memory in proportion to the source, because a table keeps its
// source cells and only Grid lays them out. Each Grid call builds a grid of
// its own.
func TestTablesKeepSourceCellsOnly(t *testing.T) {
	wide := "<table><tr>" + strings.Repeat(`<td colspan="1000">x`, 262)
	for name, src := range map[string]string{
		"side by side": strings.Repeat(wide+"</table>", 16),
		"nested":       strings.Repeat(wide, 16),
	} {
		var tables []*Table
		alloc := allocated(func() { tables = ParseTables(src) })
		alloc += allocated(func() { ScanTables(src, func(*Table) error { return nil }) })
		if alloc > 64*uint64(len(src)) {
			t.Errorf("%s: ParseTables and ScanTables allocated %d bytes on %d bytes of input, want at most 64 per input byte", name, alloc, len(src))
		}
		if len(tables) != 16 {
			t.Fatalf("%s: %d tables, want 16", name, len(tables))
		}
		grid := mustGrid(t, tables[15])
		if len(grid) != 1 || len(grid[0]) != 262000 || grid[0][261999].Text != "x" {
			t.Fatalf("%s: last table's grid is not one row of 262,000 x", name)
		}
		grid[0][0].Text = "y"
		if again := mustGrid(t, tables[15]); again[0][0].Text != "x" {
			t.Errorf("%s: a second Grid call sees the first call's grid modified", name)
		}
	}
}

// TestScanTablesStopsAtError: ScanTables gives tables in the order they
// close and returns the first error its function returns, without reading
// further tables.
func TestScanTablesStopsAtError(t *testing.T) {
	src := `<table><tr><td>a<table><tr><td>b</table></table><table><tr><td>c</table><table><tr><td>d`
	stop := errors.New("stop")
	var seen []string
	err := ScanTables(src, func(tab *Table) error {
		seen = append(seen, mustGrid(t, tab)[0][0].Text)
		if len(seen) == 3 {
			return stop
		}
		return nil
	})
	if err != stop || !reflect.DeepEqual(seen, []string{"b", "a", "c"}) {
		t.Errorf("ScanTables = %v after tables %q, want stop after b, a, c", err, seen)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestParseTableRowAndColSpanCombined(t *testing.T) {
	src := `
<table>
 <tr><td rowspan="2" colspan="2">big</td><td>r0</td></tr>
 <tr><td>r1</td></tr>
 <tr><td>a</td><td>b</td><td>c</td></tr>
</table>`
	grid := mustGrid(t, ParseTables(src)[0])
	for _, pos := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		c := grid[pos[0]][pos[1]]
		if c.Text != "big" || c.OriginRow != 0 || c.OriginCol != 0 {
			t.Errorf("grid[%d][%d] = %+v", pos[0], pos[1], c)
		}
	}
	if grid[1][2].Text != "r1" {
		t.Errorf("grid[1][2] = %+v", grid[1][2])
	}
	if grid[2][0].Text != "a" || grid[2][2].Text != "c" {
		t.Errorf("row 2 = %+v", grid[2])
	}
}

func TestParseRaggedRowsPadded(t *testing.T) {
	src := `<table><tr><td>a</td><td>b</td></tr><tr><td>only</td></tr></table>`
	grid := mustGrid(t, ParseTables(src)[0])
	if len(grid[1]) != 2 {
		t.Fatalf("row 1 width = %d", len(grid[1]))
	}
	if grid[1][1].Present {
		t.Error("padding cell should be absent")
	}
}

func TestParseMultipleAndNestedTables(t *testing.T) {
	src := `
<table><tr><td>outer1</td></tr></table>
<p>between</p>
<table><tr><td><table><tr><td>inner</td></tr></table></td><td>outer2</td></tr></table>`
	tables := ParseTables(src)
	if len(tables) != 3 {
		t.Fatalf("tables = %d, want 3", len(tables))
	}
	// The inner table closes before its parent, and its text leaves the
	// enclosing cell empty.
	for i, want := range [][][]string{{{"outer1"}}, {{"inner"}}, {{"", "outer2"}}} {
		if got := cellTexts(t, tables[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("table %d = %q, want %q", i, got, want)
		}
	}
}

func TestParseUnclosedTable(t *testing.T) {
	src := `<table><tr><td>a</td><td>b`
	tables := ParseTables(src)
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	if got := cellTexts(t, tables[0]); !reflect.DeepEqual(got, [][]string{{"a", "b"}}) {
		t.Errorf("grid = %q, want one row a, b", got)
	}
}

func TestCellTextNormalization(t *testing.T) {
	src := "<table><tr><td>  beginning\n   cash </td><td>A<br>B</td></tr></table>"
	row := mustGrid(t, ParseTables(src)[0])[0]
	if row[0].Text != "beginning cash" {
		t.Errorf("text = %q", row[0].Text)
	}
	if row[1].Text != "A B" {
		t.Errorf("br handling = %q", row[1].Text)
	}
}

func TestTableString(t *testing.T) {
	src := `<table><tr><td rowspan="2">y</td><td>a</td></tr><tr><td>b</td></tr></table>`
	s := ParseTables(src)[0].String()
	if !strings.Contains(s, "^y") {
		t.Errorf("String() = %q, expected spanned marker", s)
	}
	var empty Table
	if g, err := empty.Grid(); g != nil || err != nil {
		t.Errorf("empty table grid = %v, %v; want nil, nil", g, err)
	}
}

func TestInvalidSpanAttributesDefaultToOne(t *testing.T) {
	src := `<table><tr><td rowspan="0" colspan="banana">x</td></tr><tr><td>y</td></tr></table>`
	if got := cellTexts(t, ParseTables(src)[0]); !reflect.DeepEqual(got, [][]string{{"x"}, {"y"}}) {
		t.Errorf("grid = %q, want x above y", got)
	}
}

// TestSpanBombClamped: a 52-byte document asking for five million columns
// expands to the standard's 1000-column limit, not to one grid position
// per requested column.
func TestSpanBombClamped(t *testing.T) {
	src := `<table><tr><td colspan="5000000">x</td></tr></table>`
	if len(src) != 52 {
		t.Fatalf("document is %d bytes, want 52", len(src))
	}
	grid := mustGrid(t, ParseTables(src)[0])
	if len(grid) != 1 || len(grid[0]) != 1000 {
		t.Fatalf("grid is %d rows, first of width %d; want 1 row of width 1000", len(grid), len(grid[0]))
	}
	// A rowspan of 100000 covers 65534 rows: the next row is empty.
	src = `<table><tr><td rowspan="100000">x</td></tr>` + strings.Repeat("<tr>", 65534)
	grid = mustGrid(t, ParseTables(src)[0])
	if len(grid) != 65535 {
		t.Fatalf("grid is %d rows, want 65535", len(grid))
	}
	if !grid[65533][0].Spanned || grid[65534][0].Present {
		t.Errorf("row 65533 %+v, row 65534 %+v; want row 65533 spanned, row 65534 absent", grid[65533][0], grid[65534][0])
	}
}

func TestTokenizeNeverPanicsProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tab := range ParseTables(s) {
			_, _ = tab.Grid()
			_ = tab.String()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Error(err)
	}
}

func TestGridAlwaysRectangularProperty(t *testing.T) {
	// For random small span structures, the grid expansion is rectangular.
	f := func(spans []uint8) bool {
		var b strings.Builder
		b.WriteString("<table>")
		i := 0
		for r := 0; r < 3; r++ {
			b.WriteString("<tr>")
			for c := 0; c < 3; c++ {
				rs, cs := 1, 1
				if i < len(spans) {
					rs = 1 + int(spans[i]%3)
					cs = 1 + int(spans[i]/3%3)
					i++
				}
				fmt.Fprintf(&b, `<td rowspan="%d" colspan="%d">x</td>`, rs, cs)
			}
			b.WriteString("</tr>")
		}
		b.WriteString("</table>")
		tables := ParseTables(b.String())
		if len(tables) != 1 {
			return false
		}
		grid, err := tables[0].Grid()
		if err != nil || len(grid) == 0 {
			return false
		}
		w := len(grid[0])
		for _, row := range grid {
			if len(row) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Error(err)
	}
}
