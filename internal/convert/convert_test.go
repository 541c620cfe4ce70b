package convert

import (
	"strings"
	"testing"

	"dart/internal/docgen"
	"dart/internal/htmlx"
)

func TestDetect(t *testing.T) {
	tests := []struct {
		src  string
		want Format
	}{
		{"<!DOCTYPE html><html></html>", FormatHTML},
		{"  <html>", FormatHTML},
		{"<table><tr></tr></table>", FormatHTML},
		{"== Title ==\n2003 | x | 1", FormatScanText},
		{"plain text", FormatScanText},
	}
	for _, tc := range tests {
		if got := Detect(tc.src); got != tc.want {
			t.Errorf("Detect(%.20q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestToHTMLPassthrough(t *testing.T) {
	src := "<html><body><table></table></body></html>"
	out, err := ToHTML(src, FormatHTML)
	if err != nil || out != src {
		t.Errorf("passthrough = %q, %v", out, err)
	}
	if _, err := ToHTML("x", Format(99)); err == nil {
		t.Error("unknown format should fail")
	}
}

func TestScanTextRoundTrip(t *testing.T) {
	doc := docgen.RunningExampleDocument()
	txt := doc.ScanText()
	html, err := ToHTML(txt, FormatScanText)
	if err != nil {
		t.Fatal(err)
	}
	tables := htmlx.ParseTables(html)
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(tables))
	}
	// Every converted table is 10 rows x 4 columns of repeated values.
	var grids [][][]htmlx.GridCell
	for ti, tb := range tables {
		grid, err := tb.Grid()
		if err != nil {
			t.Fatal(err)
		}
		if len(grid) != 10 || len(grid[0]) != 4 {
			t.Fatalf("table %d grid = %dx%d", ti, len(grid), len(grid[0]))
		}
		grids = append(grids, grid)
	}
	if got := grids[0][3][3].Text; got != "220" {
		t.Errorf("tcr value = %q", got)
	}
	if got := grids[1][0][0].Text; got != "2004" {
		t.Errorf("second table year = %q", got)
	}
	if !strings.Contains(html, "<title>Cash budgets</title>") {
		t.Error("title lost in conversion")
	}
}

func TestScanTextCaptions(t *testing.T) {
	txt := "== Doc ==\n-- Budget A --\n1 | 2\n\n-- Budget B --\n3 | 4\n"
	html := ScanTextToHTML(txt)
	if !strings.Contains(html, "<h2>Budget A</h2>") || !strings.Contains(html, "<h2>Budget B</h2>") {
		t.Errorf("captions lost:\n%s", html)
	}
	tables := htmlx.ParseTables(html)
	if len(tables) != 2 {
		t.Fatalf("tables = %d", len(tables))
	}
}

func TestScanTextEscaping(t *testing.T) {
	txt := "a & b | <c>\n"
	html := ScanTextToHTML(txt)
	if !strings.Contains(html, "a &amp; b") || !strings.Contains(html, "&lt;c&gt;") {
		t.Errorf("escaping missing:\n%s", html)
	}
	grid, err := htmlx.ParseTables(html)[0].Grid()
	if err != nil {
		t.Fatal(err)
	}
	if cells := grid[0]; cells[0].Text != "a & b" || cells[1].Text != "<c>" {
		t.Errorf("round trip = %+v", cells)
	}
}

func TestScanTextEmptyInput(t *testing.T) {
	html := ScanTextToHTML("")
	if len(htmlx.ParseTables(html)) != 0 {
		t.Error("empty input should produce no tables")
	}
}

func TestFormatString(t *testing.T) {
	if FormatHTML.String() != "html" || FormatScanText.String() != "scantext" {
		t.Error("format names")
	}
}
