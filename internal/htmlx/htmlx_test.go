package htmlx

import (
	"fmt"
	"math/rand"
	"runtime"
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

func TestTokenizeBasics(t *testing.T) {
	toks := Tokenize(`<table class="x"><tr><td colspan=2>A &amp; B</td></tr></table>`)
	kinds := []TokenKind{TokenStartTag, TokenStartTag, TokenStartTag, TokenText, TokenEndTag, TokenEndTag, TokenEndTag}
	if len(toks) != len(kinds) {
		t.Fatalf("tokens = %d, want %d: %+v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d kind = %v, want %v", i, toks[i].Kind, k)
		}
	}
	if toks[0].Attrs["class"] != "x" {
		t.Errorf("class attr = %q", toks[0].Attrs["class"])
	}
	if toks[2].Attrs["colspan"] != "2" {
		t.Errorf("unquoted attr = %q", toks[2].Attrs["colspan"])
	}
	if toks[3].Text != "A & B" {
		t.Errorf("text = %q", toks[3].Text)
	}
}

func TestTokenizeCommentsDoctypeScript(t *testing.T) {
	src := `<!DOCTYPE html><!-- hidden <td>junk</td> --><script>if (a<b) x();</script><p>ok</p>`
	toks := Tokenize(src)
	var texts []string
	for _, tok := range toks {
		if tok.Kind == TokenText {
			texts = append(texts, tok.Text)
		}
	}
	joined := strings.Join(texts, "")
	if strings.Contains(joined, "junk") || strings.Contains(joined, "x()") {
		t.Errorf("comment/script leaked into text: %q", joined)
	}
	if !strings.Contains(joined, "ok") {
		t.Errorf("content lost: %q", joined)
	}
}

// TestTokenizeScriptTagsLinear: skipping script and style elements costs
// allocation in proportion to the input, not to the number of elements
// times the input. The trailing upper-case byte defeats any shortcut for
// input that is already lower case.
func TestTokenizeScriptTagsLinear(t *testing.T) {
	src := strings.Repeat("<script>x</script><style>y</STYLE>", 2000) + "X"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	toks := Tokenize(src)
	runtime.ReadMemStats(&after)
	if len(toks) != 8001 || toks[8000].Text != "X" {
		t.Fatalf("%d tokens, last %+v; want 8001 ending in text X", len(toks), toks[len(toks)-1])
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(src)) {
		t.Errorf("Tokenize allocated %d bytes on %d bytes of input, want at most 64 per input byte", alloc, len(src))
	}
}

func TestTokenizeSelfClosingAndBadInput(t *testing.T) {
	toks := Tokenize(`<br/><img src='a.png'/>< ><tag`)
	if len(toks) == 0 || toks[0].Name != "br" || !toks[0].SelfClosing {
		t.Errorf("self-closing br: %+v", toks)
	}
	// Must not panic and must not lose trailing text entirely.
	_ = Tokenize("")
	_ = Tokenize("<")
	_ = Tokenize("<!---")
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
	tb := tables[0]
	if len(tb.Rows) != 2 || len(tb.Rows[0]) != 2 {
		t.Fatalf("rows = %+v", tb.Rows)
	}
	if !tb.Rows[0][0].Header || tb.Rows[1][0].Header {
		t.Error("header flags wrong")
	}
	if tb.Rows[1][0].Text != "2003" || tb.Rows[1][1].Text != "220" {
		t.Errorf("cell text = %+v", tb.Rows[1])
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
	if tables[0].Rows[0][0].Text != "outer1" {
		t.Errorf("first table: %+v", tables[0].Rows)
	}
	// The inner table closes before its parent.
	if tables[1].Rows[0][0].Text != "inner" {
		t.Errorf("second table: %+v", tables[1].Rows)
	}
	if got := tables[2].Rows[0][1].Text; got != "outer2" {
		t.Errorf("outer cell: %q", got)
	}
}

func TestParseUnclosedTable(t *testing.T) {
	src := `<table><tr><td>a</td><td>b`
	tables := ParseTables(src)
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	row := tables[0].Rows[0]
	if len(row) != 2 || row[1].Text != "b" {
		t.Errorf("rows = %+v", tables[0].Rows)
	}
}

func TestCellTextNormalization(t *testing.T) {
	src := "<table><tr><td>  beginning\n   cash </td><td>A<br>B</td></tr></table>"
	row := ParseTables(src)[0].Rows[0]
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
	src := `<table><tr><td rowspan="0" colspan="banana">x</td></tr></table>`
	c := ParseTables(src)[0].Rows[0][0]
	if c.RowSpan != 1 || c.ColSpan != 1 {
		t.Errorf("spans = %d, %d", c.RowSpan, c.ColSpan)
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
	c := ParseTables(`<table><tr><td rowspan="100000">x</td></tr></table>`)[0].Rows[0][0]
	if c.RowSpan != 65534 {
		t.Errorf("rowspan = %d, want 65534", c.RowSpan)
	}
}

func TestTokenizeNeverPanicsProperty(t *testing.T) {
	f := func(s string) bool {
		_ = Tokenize(s)
		_ = ParseTables(s)
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
