package htmlx

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Table is one table of a document: its source cells as scanned, row by
// row. Grid expands them; the table itself holds no grid, so a document's
// tables cost memory in proportion to their source.
type Table struct {
	cells []srcCell
	ends  []int // row r is cells[ends[r-1]:ends[r]]
}

// srcCell is one td or th of a table. The span clamps fit in 16 bits.
type srcCell struct {
	text             string
	rowSpan, colSpan uint16
	header           bool
}

// GridCell is one cell of the rectangular expansion of a table. Cells
// covered by a span share the Text of — and point back to — their origin.
type GridCell struct {
	Text string
	// OriginRow/OriginCol locate the top-left cell of the span this grid
	// position belongs to; for unspanned cells they equal the position.
	OriginRow, OriginCol int
	// Spanned is true when this position is covered by a rowspan/colspan
	// of another position rather than by its own source cell.
	Spanned bool
	// Present is false for positions with no source cell at all (ragged
	// rows padded to the grid width).
	Present bool
	Header  bool
}

// The HTML standard's span limits. A grid holds one position per unit of
// colspan, so an uncapped attribute lets a tiny document demand gigabytes.
const (
	maxColSpan = 1000
	maxRowSpan = 65534
)

// maxGridCells bounds the positions one table expands into: 2^18
// positions, 10 MiB of GridCells. Padding ragged rows to the widest row
// multiplies rows by columns, so without a bound a 36 KB document of 4000
// empty rows and one row of 4000 cells expands to 16 million positions.
// Generated 50-year budgets need 40 positions per table.
const maxGridCells = 1 << 18

var errGridTooLarge = fmt.Errorf("htmlx: table expands to more than %d grid cells", maxGridCells)

// Grid returns the table's rectangular expansion, resolving rowspan and
// colspan: each source cell occupies a block of grid positions whose
// top-left holds the cell and whose remainder are Spanned references to it.
// Ragged rows are padded with absent cells. This is the representation the
// wrapper matches row patterns against — the multi-row Year cell of Fig. 1
// becomes a value "associated to all the document rows which are adjacent
// to the multi-row cell" (Example 13) precisely because every covered grid
// row sees its text.
//
// A position is covered by a span from above only when the row reaches its
// origin column with no source cell of its own placed over it; a rowspan
// that reaches past the last row is cut off there.
//
// Each call builds a new grid in one backing array: a first pass over the
// source cells measures it, and Grid fails when it would exceed
// maxGridCells positions before allocating any of it.
func (t *Table) Grid() ([][]GridCell, error) {
	if len(t.ends) == 0 {
		return nil, nil
	}
	var buf [2][8]hang
	width := layout(t, nil, buf[0][:0], buf[1][:0])
	if width > maxGridCells/len(t.ends) {
		return nil, errGridTooLarge
	}
	cells := make([]GridCell, len(t.ends)*width)
	grid := make([][]GridCell, len(t.ends))
	for r := range grid {
		grid[r] = cells[r*width : (r+1)*width : (r+1)*width]
	}
	layout(t, grid, buf[0][:0], buf[1][:0])
	return grid, nil
}

// String renders the expanded grid for debugging and golden tests.
func (t *Table) String() string {
	grid, err := t.Grid()
	if err != nil {
		return err.Error()
	}
	var b strings.Builder
	for _, row := range grid {
		for i, c := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			switch {
			case !c.Present:
				b.WriteString("·")
			case c.Spanned:
				fmt.Fprintf(&b, "^%s", c.Text)
			default:
				b.WriteString(c.Text)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// hang is a rowspan still covering rows below its origin.
type hang struct {
	cell GridCell // as placed in the covered rows
	cols int
	rows int // rows still covered
}

// layout places t's source cells row by row, left to right, writing them to
// grid unless it is nil, and returns the width of the widest row. Measuring
// stops at the first row wider than the bound allows. cur holds the
// rowspans from rows above that cover the current row, by origin column;
// cur[:p] have been placed or passed. next collects the rowspans that
// continue into the next row, also by column.
func layout(t *Table, grid [][]GridCell, cur, next []hang) (width int) {
	start := 0
	for r, end := range t.ends {
		col, p, k := 0, 0, start
		for {
			for p < len(cur) && cur[p].cell.OriginCol < col {
				next = append(next, cur[p])
				p++
			}
			// A rowspan from above covers the column the row has reached
			// when one starts there; otherwise the next source cell does.
			var gc GridCell
			var n int
			if p < len(cur) && cur[p].cell.OriginCol == col {
				h := cur[p]
				p, gc, n = p+1, h.cell, h.cols
				if h.rows--; h.rows > 0 {
					next = append(next, h)
				}
			} else if k < end {
				c := t.cells[k]
				k, gc, n = k+1, GridCell{Text: c.text, OriginRow: r, OriginCol: col, Present: true, Header: c.header}, int(c.colSpan)
				if c.rowSpan > 1 {
					h := hang{cell: gc, cols: n, rows: int(c.rowSpan) - 1}
					h.cell.Spanned = true
					next = append(next, h)
				}
			} else {
				break
			}
			// The cell takes n positions: gc, then n-1 Spanned copies.
			if grid != nil {
				for i := col; i < col+n; i++ {
					grid[r][i] = gc
					gc.Spanned = true
				}
			}
			col += n
		}
		if width = max(width, col); width > maxGridCells/len(t.ends) {
			return width
		}
		next = append(next, cur[p:]...)
		cur, next = next, cur[:0]
		start = end
	}
	return width
}

// frame is an open table during the scan: its source cells so far and the
// cell being read.
type frame struct {
	cells         []srcCell
	ends          []int
	inRow, inCell bool
	cell          srcCell // the open cell, until its text is known
	// The open cell's text: its first piece as is, and every piece once
	// there are two.
	first string
	more  []byte
}

func (f *frame) add(s string) {
	switch {
	case len(f.more) > 0:
		f.more = append(f.more, s...)
	case f.first == "":
		f.first = s
	default:
		f.more = append(append(f.more, f.first...), s...)
	}
}

func (f *frame) closeCell() {
	if !f.inCell {
		return
	}
	f.inCell = false
	text := f.first
	if len(f.more) > 0 {
		text = string(f.more)
	}
	f.first, f.more = "", f.more[:0]
	f.cell.text = CollapseSpace(text)
	f.cells = append(f.cells, f.cell)
}

func (f *frame) closeRow() {
	f.closeCell()
	if f.inRow {
		f.inRow = false
		f.ends = append(f.ends, len(f.cells))
	}
}

// CollapseSpace trims and collapses consecutive whitespace to single
// spaces, the normalization applied to all extracted cell text. Text that
// is collapsed ASCII once trimmed is returned as a substring of s.
func CollapseSpace(s string) string {
	s = trimSpace(s)
	if collapsedASCII(s) {
		return s
	}
	return strings.Join(strings.Fields(s), " ")
}

// collapsedASCII reports whether s is ASCII in which strings.Fields finds
// no whitespace other than single spaces between words.
func collapsedASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf, c == '\t', c == '\n', c == '\v', c == '\f', c == '\r':
			return false
		case c == ' ' && (i == 0 || i == len(s)-1 || s[i+1] == ' '):
			return false
		}
	}
	return true
}
