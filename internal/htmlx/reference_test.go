package htmlx_test

import (
	"strconv"
	"strings"

	"dart/internal/htmlx"
)

// This file keeps the tokenizer, table parser and grid expansion as they
// were before text tokens became substrings of the source, attribute maps
// became lazy and the token stream gave way to the table scanner.
// FuzzParseTables compares the package against it.

// refTokenKind classifies tokens.
type refTokenKind int

const (
	refTokenText refTokenKind = iota
	refTokenStartTag
	refTokenEndTag
)

// refToken is one lexical unit of an HTML document.
type refToken struct {
	Kind        refTokenKind
	Name        string
	Text        string
	Attrs       map[string]string
	SelfClosing bool
}

// refCell is one td/th element as written in the source, with its spans.
type refCell struct {
	Text    string
	RowSpan int
	ColSpan int
	Header  bool
}

// refTable is a parsed table: rows of source cells.
type refTable struct {
	Rows [][]refCell
}

// refMaxGridCells is the package's bound on the positions of one grid.
const refMaxGridCells = 1 << 18

// refTokenize splits HTML source into tokens. It is deliberately tolerant:
// unknown constructs are skipped, attributes may be unquoted, comments and
// doctypes are dropped. Script and style elements are skipped entirely.
func refTokenize(src string) []refToken {
	var toks []refToken
	i, n := 0, len(src)
	var text strings.Builder
	flushText := func() {
		if text.Len() > 0 {
			toks = append(toks, refToken{Kind: refTokenText, Text: htmlx.DecodeEntities(text.String())})
			text.Reset()
		}
	}
	for i < n {
		c := src[i]
		if c != '<' {
			text.WriteByte(c)
			i++
			continue
		}
		// Comment?
		if strings.HasPrefix(src[i:], "<!--") {
			flushText()
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				break
			}
			i += 4 + end + 3
			continue
		}
		// Doctype or other declaration.
		if strings.HasPrefix(src[i:], "<!") || strings.HasPrefix(src[i:], "<?") {
			flushText()
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				break
			}
			i += end + 1
			continue
		}
		// Tag.
		end := strings.IndexByte(src[i:], '>')
		if end < 0 {
			// Trailing junk: treat as text.
			text.WriteString(src[i:])
			break
		}
		raw := src[i+1 : i+end]
		i += end + 1
		flushText()
		tok, ok := refParseTag(raw)
		if !ok {
			continue
		}
		toks = append(toks, tok)
		// Skip raw content of script/style.
		if tok.Kind == refTokenStartTag && !tok.SelfClosing && (tok.Name == "script" || tok.Name == "style") {
			closer := "</" + tok.Name
			idx := strings.Index(strings.ToLower(src[i:]), closer)
			if idx < 0 {
				break
			}
			i += idx
		}
	}
	flushText()
	return toks
}

// refParseTag parses the inside of <...>.
func refParseTag(raw string) (refToken, bool) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return refToken{}, false
	}
	end := false
	if raw[0] == '/' {
		end = true
		raw = strings.TrimSpace(raw[1:])
	}
	selfClosing := false
	if strings.HasSuffix(raw, "/") {
		selfClosing = true
		raw = strings.TrimSpace(raw[:len(raw)-1])
	}
	// Tag name.
	j := 0
	for j < len(raw) && !refIsSpace(raw[j]) {
		j++
	}
	name := strings.ToLower(raw[:j])
	if name == "" {
		return refToken{}, false
	}
	if end {
		return refToken{Kind: refTokenEndTag, Name: name}, true
	}
	tok := refToken{Kind: refTokenStartTag, Name: name, SelfClosing: selfClosing, Attrs: map[string]string{}}
	// Attributes.
	k := j
	for k < len(raw) {
		for k < len(raw) && refIsSpace(raw[k]) {
			k++
		}
		if k >= len(raw) {
			break
		}
		start := k
		for k < len(raw) && raw[k] != '=' && !refIsSpace(raw[k]) {
			k++
		}
		attr := strings.ToLower(raw[start:k])
		val := ""
		for k < len(raw) && refIsSpace(raw[k]) {
			k++
		}
		if k < len(raw) && raw[k] == '=' {
			k++
			for k < len(raw) && refIsSpace(raw[k]) {
				k++
			}
			if k < len(raw) && (raw[k] == '"' || raw[k] == '\'') {
				q := raw[k]
				k++
				vs := k
				for k < len(raw) && raw[k] != q {
					k++
				}
				val = raw[vs:k]
				if k < len(raw) {
					k++
				}
			} else {
				vs := k
				for k < len(raw) && !refIsSpace(raw[k]) {
					k++
				}
				val = raw[vs:k]
			}
		}
		if attr != "" {
			tok.Attrs[attr] = htmlx.DecodeEntities(val)
		}
	}
	return tok, true
}

func refIsSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// refParseTables is ParseTables over refTokenize.
func refParseTables(src string) []*refTable {
	toks := refTokenize(src)
	var tables []*refTable

	type frame struct {
		table  *refTable
		row    []refCell
		cell   *refCell
		text   strings.Builder
		inRow  bool
		inCell bool
	}
	var stack []*frame

	closeCell := func(f *frame) {
		if f.inCell && f.cell != nil {
			f.cell.Text = refCollapseSpace(f.text.String())
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
		case refTokenStartTag:
			switch tok.Name {
			case "table":
				stack = append(stack, &frame{table: &refTable{}})
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
					c := &refCell{RowSpan: refSpanAttr(tok.Attrs, "rowspan", 65534), ColSpan: refSpanAttr(tok.Attrs, "colspan", 1000), Header: tok.Name == "th"}
					f.cell = c
					f.inCell = true
				}
			case "br":
				if f := top(); f != nil && f.inCell {
					f.text.WriteByte(' ')
				}
			}
		case refTokenEndTag:
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
		case refTokenText:
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

func refSpanAttr(attrs map[string]string, name string, limit int) int {
	if v, ok := attrs[name]; ok {
		if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && n >= 1 {
			return min(n, limit)
		}
	}
	return 1
}

func refCollapseSpace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// refGrid is the grid expansion before the bound, with the bound checked
// as it goes: over reports that the grid would have more than limit
// positions, and then grid is nil.
func refGrid(t *refTable, limit int) (grid [][]htmlx.GridCell, over bool) {
	if len(t.Rows) == 0 {
		return nil, false
	}
	// pending[c] = remaining rows the span at column c still covers, with
	// its origin.
	pending := map[int]*refHang{}
	width := 0
	for r := 0; r < len(t.Rows); r++ {
		row := make([]htmlx.GridCell, 0, 8)
		col := 0
		place := func(gc htmlx.GridCell) {
			row = append(row, gc)
			col++
			over = over || len(row) > limit/len(t.Rows)
		}
		// Fill positions covered by spans from above, then source cells.
		srcIdx := 0
		for srcIdx < len(t.Rows[r]) || refHasPendingAt(pending, col) {
			if over {
				return nil, true
			}
			if h, ok := pending[col]; ok && h.rows > 0 {
				for k := 0; k < h.cols; k++ {
					place(htmlx.GridCell{Text: h.text, OriginRow: h.or, OriginCol: h.oc, Spanned: true, Present: true, Header: h.header})
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
				place(htmlx.GridCell{Text: c.Text, OriginRow: or, OriginCol: oc, Spanned: k > 0, Present: true, Header: c.Header})
			}
			if c.RowSpan > 1 {
				pending[oc] = &refHang{rows: c.RowSpan - 1, cols: c.ColSpan, text: c.Text, or: or, oc: oc, header: c.Header}
			}
		}
		if len(row) > width {
			width = len(row)
		}
		grid = append(grid, row)
	}
	if over || width > limit/len(t.Rows) {
		return nil, true
	}
	// Pad ragged rows.
	for r := range grid {
		for len(grid[r]) < width {
			grid[r] = append(grid[r], htmlx.GridCell{Present: false})
		}
	}
	return grid, false
}

func refHasPendingAt(pending map[int]*refHang, col int) bool {
	h, ok := pending[col]
	return ok && h.rows > 0
}

type refHang struct {
	rows   int
	cols   int
	text   string
	or, oc int
	header bool
}
