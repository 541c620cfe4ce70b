package htmlx

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
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
	var tables []*Table

	type frame struct {
		table  *Table
		row    []Cell
		cell   Cell
		text   cellText
		inRow  bool
		inCell bool
	}
	var stack []*frame

	closeCell := func(f *frame) {
		if f.inCell {
			f.cell.Text = CollapseSpace(f.text.String())
			f.row = append(f.row, f.cell)
			f.inCell = false
			f.text.reset()
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

	z := tokenizer{src: src}
	for tok, ok := z.next(); ok; tok, ok = z.next() {
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
					f.cell = Cell{RowSpan: spanAttr(tok.Attrs, "rowspan", maxRowSpan), ColSpan: spanAttr(tok.Attrs, "colspan", maxColSpan), Header: tok.Name == "th"}
					f.inCell = true
				}
			case "br":
				if f := top(); f != nil && f.inCell {
					f.text.add(" ")
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
				f.text.add(tok.Text)
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

// cellText accumulates the character data of one cell. The usual cell holds
// a single text token, which is kept as is, without a copy.
type cellText struct {
	first string
	more  strings.Builder // first and every later piece, once there are two
}

func (c *cellText) add(s string) {
	switch {
	case c.more.Len() > 0:
		c.more.WriteString(s)
	case c.first == "":
		c.first = s
	default:
		c.more.WriteString(c.first)
		c.more.WriteString(s)
	}
}

func (c *cellText) String() string {
	if c.more.Len() > 0 {
		return c.more.String()
	}
	return c.first
}

func (c *cellText) reset() {
	c.first = ""
	c.more.Reset()
}

// The HTML standard's span limits. Grid allocates one position per unit of
// colspan, so an uncapped attribute lets a tiny document demand gigabytes.
const (
	maxColSpan = 1000
	maxRowSpan = 65534
)

// maxGridCells bounds the positions Grid expands one table into: 2^18
// positions, 10 MiB of GridCells. Padding ragged rows to the widest row
// multiplies rows by columns, so without a bound a 36 KB document of 4000
// empty rows and one row of 4000 cells expands to 16 million positions.
// Generated 50-year budgets need 40 positions per table.
const maxGridCells = 1 << 18

var errGridTooLarge = fmt.Errorf("htmlx: table expands to more than %d grid cells", maxGridCells)

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
// spaces, the normalization applied to all extracted cell text. Text that
// is already collapsed ASCII is returned as is.
func CollapseSpace(s string) string {
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

// Grid expands the table into a rectangular matrix, resolving rowspan and
// colspan: each source cell occupies a block of grid positions whose
// top-left holds the cell and whose remainder are Spanned references to it.
// Ragged rows are padded with absent cells. This is the representation the
// wrapper matches row patterns against — the multi-row Year cell of Fig. 1
// becomes a value "associated to all the document rows which are adjacent
// to the multi-row cell" (Example 13) precisely because every covered grid
// row sees its text.
//
// Grid fails, having allocated little, when the expansion would exceed
// maxGridCells positions.
func (t *Table) Grid() ([][]GridCell, error) {
	if len(t.Rows) == 0 {
		return nil, nil
	}
	// Every row is at least as wide as the colspans of its own cells, and
	// padding makes every row as wide as the widest: reject a table whose
	// rows already demand too much before expanding anything.
	for _, row := range t.Rows {
		span := 0
		for _, c := range row {
			span += c.ColSpan
		}
		if span > maxGridCells/len(t.Rows) {
			return nil, errGridTooLarge
		}
	}
	// pending[c] = remaining rows the span at column c still covers, with
	// its origin.
	grid := make([][]GridCell, 0, len(t.Rows))
	pending := map[int]*hang{}
	width, cells, prev := 0, 0, 0
	for r := 0; r < len(t.Rows); r++ {
		// A row is usually as wide as the one above and never narrower than
		// its own cells.
		row := make([]GridCell, 0, max(prev, len(t.Rows[r])))
		col := 0
		place := func(gc GridCell) {
			row = append(row, gc)
			col++
		}
		// Fill positions covered by spans from above, then source cells.
		srcIdx := 0
		for srcIdx < len(t.Rows[r]) || hasPendingAt(pending, col) {
			if cells+col > maxGridCells {
				return nil, errGridTooLarge
			}
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
		prev = len(row)
		width = max(width, len(row))
		cells += len(row)
		grid = append(grid, row)
	}
	if width > maxGridCells/len(grid) {
		return nil, errGridTooLarge
	}
	// Pad ragged rows with absent cells.
	for r := range grid {
		if pad := width - len(grid[r]); pad > 0 {
			grid[r] = append(grid[r], make([]GridCell, pad)...)
		}
	}
	return grid, nil
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
