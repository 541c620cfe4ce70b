package htmlx

import (
	"fmt"
	"strconv"
	"strings"
)

// Cell is one td/th element as written in the source, with its spans.
type Cell struct {
	Text    string
	RowSpan int
	ColSpan int
	Header  bool
}

// Table is a parsed HTML table: rows of source cells plus any nested
// tables encountered inside cells (flattened out, in document order).
type Table struct {
	Rows [][]Cell
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

// ParseTables extracts every table of an HTML document, in document order.
// Nested tables are returned after their enclosing table and their content
// is removed from the outer table's cells.
func ParseTables(src string) []*Table {
	toks := Tokenize(src)
	var tables []*Table

	type frame struct {
		table  *Table
		row    []Cell
		cell   *Cell
		text   strings.Builder
		inRow  bool
		inCell bool
	}
	var stack []*frame

	closeCell := func(f *frame) {
		if f.inCell && f.cell != nil {
			f.cell.Text = CollapseSpace(f.text.String())
			f.row = append(f.row, *f.cell)
			f.cell = nil
			f.inCell = false
			f.text.Reset()
		}
	}
	closeRow := func(f *frame) {
		closeCell(f)
		if f.inRow {
			f.table.Rows = append(f.table.Rows, f.row)
			f.row = nil
			f.inRow = false
		}
	}

	for _, tok := range toks {
		top := func() *frame {
			if len(stack) == 0 {
				return nil
			}
			return stack[len(stack)-1]
		}
		switch tok.Kind {
		case TokenStartTag:
			switch tok.Name {
			case "table":
				stack = append(stack, &frame{table: &Table{}})
			case "tr":
				if f := top(); f != nil {
					closeRow(f)
					f.inRow = true
				}
			case "td", "th":
				if f := top(); f != nil {
					if !f.inRow {
						f.inRow = true
					}
					closeCell(f)
					c := &Cell{RowSpan: spanAttr(tok.Attrs, "rowspan", maxRowSpan), ColSpan: spanAttr(tok.Attrs, "colspan", maxColSpan), Header: tok.Name == "th"}
					f.cell = c
					f.inCell = true
				}
			case "br":
				if f := top(); f != nil && f.inCell {
					f.text.WriteByte(' ')
				}
			}
		case TokenEndTag:
			switch tok.Name {
			case "table":
				if f := top(); f != nil {
					closeRow(f)
					tables = append(tables, f.table)
					stack = stack[:len(stack)-1]
				}
			case "tr":
				if f := top(); f != nil {
					closeRow(f)
				}
			case "td", "th":
				if f := top(); f != nil {
					closeCell(f)
				}
			}
		case TokenText:
			if f := top(); f != nil && f.inCell {
				f.text.WriteString(tok.Text)
			}
		}
	}
	// Unclosed tables at EOF are still returned.
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		closeRow(f)
		tables = append(tables, f.table)
		stack = stack[:len(stack)-1]
	}
	return tables
}

// The HTML standard's span limits. Grid allocates one position per unit of
// colspan, so an uncapped attribute lets a tiny document demand gigabytes.
const (
	maxColSpan = 1000
	maxRowSpan = 65534
)

// spanAttr reads a span attribute: missing or invalid values (non-numeric
// or below 1) mean 1, and values above limit are clamped to it.
func spanAttr(attrs map[string]string, name string, limit int) int {
	if v, ok := attrs[name]; ok {
		if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && n >= 1 {
			return min(n, limit)
		}
	}
	return 1
}

// CollapseSpace trims and collapses consecutive whitespace to single
// spaces, the normalization applied to all extracted cell text.
func CollapseSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// Grid expands the table into a rectangular matrix, resolving rowspan and
// colspan: each source cell occupies a block of grid positions whose
// top-left holds the cell and whose remainder are Spanned references to it.
// Ragged rows are padded with absent cells. This is the representation the
// wrapper matches row patterns against — the multi-row Year cell of Fig. 1
// becomes a value "associated to all the document rows which are adjacent
// to the multi-row cell" (Example 13) precisely because every covered grid
// row sees its text.
func (t *Table) Grid() [][]GridCell {
	if len(t.Rows) == 0 {
		return nil
	}
	// pending[c] = remaining rows the span at column c still covers, with
	// its origin.
	var grid [][]GridCell
	pending := map[int]*hang{}
	width := 0
	for r := 0; r < len(t.Rows); r++ {
		row := make([]GridCell, 0, 8)
		col := 0
		place := func(gc GridCell) {
			row = append(row, gc)
			col++
		}
		// Fill positions covered by spans from above, then source cells.
		srcIdx := 0
		for srcIdx < len(t.Rows[r]) || hasPendingAt(pending, col) {
			if h, ok := pending[col]; ok && h.rows > 0 {
				for k := 0; k < h.cols; k++ {
					place(GridCell{Text: h.text, OriginRow: h.or, OriginCol: h.oc, Spanned: true, Present: true, Header: h.header})
				}
				h.rows--
				if h.rows == 0 {
					delete(pending, col-h.cols)
				}
				continue
			}
			if srcIdx >= len(t.Rows[r]) {
				break
			}
			c := t.Rows[r][srcIdx]
			srcIdx++
			or, oc := r, col
			for k := 0; k < c.ColSpan; k++ {
				place(GridCell{Text: c.Text, OriginRow: or, OriginCol: oc, Spanned: k > 0, Present: true, Header: c.Header})
			}
			if c.RowSpan > 1 {
				pending[oc] = &hang{rows: c.RowSpan - 1, cols: c.ColSpan, text: c.Text, or: or, oc: oc, header: c.Header}
			}
		}
		if len(row) > width {
			width = len(row)
		}
		grid = append(grid, row)
	}
	// Pad ragged rows.
	for r := range grid {
		for len(grid[r]) < width {
			grid[r] = append(grid[r], GridCell{Present: false})
		}
	}
	return grid
}

func hasPendingAt(pending map[int]*hang, col int) bool {
	h, ok := pending[col]
	return ok && h.rows > 0
}

// hang tracks a rowspan still covering upcoming rows during grid expansion.
type hang struct {
	rows   int
	cols   int
	text   string
	or, oc int
	header bool
}

// String renders the expanded grid for debugging and golden tests.
func (t *Table) String() string {
	grid := t.Grid()
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
