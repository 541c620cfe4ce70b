// Package htmlx implements the HTML substrate of DART's extraction path: a
// tolerant single-pass scanner that reads the tables of the HTML subset the
// acquisition module produces, and lays each table's cells out in a
// rectangular grid that resolves rowspan and colspan.
// Handling tables with "variable" structure — cells spanning multiple rows
// and columns with no pre-determined scheme — is one of the paper's claimed
// novelties (Section 1, contribution 1), exercised here by the multi-row
// Year cells of Fig. 1.
package htmlx

import (
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ScanTables calls fn with each table of an HTML document in the order the
// tables close, and returns the first error fn returns, which ends the scan.
// A nested table comes before the table that encloses it, and its content is
// removed from the enclosing cell; unclosed tables close at the end of the
// input, innermost first. fn's Table is valid until fn returns, as it holds
// only source cells in buffers the scan reuses; its grids stay valid.
//
// The scanner recognises only what the wrapper reads: table, tr, td and th
// (with rowspan and colspan), br as a space in a cell, and character
// references. Comments, doctypes and other declarations are dropped,
// script and style bodies are skipped, and every other tag is ignored. Tag
// and attribute names are case-insensitive and attribute values may be
// unquoted. A '<' that opens no comment or declaration and has no '>' after
// it is text, as is the rest of the input. Cell text is the entity-decoded
// character data of the cell, with whitespace collapsed (CollapseSpace); it
// is a substring of src unless entities or whitespace force a copy.
func ScanTables(src string, fn func(*Table) error) error {
	s := scanner{src: src, fn: fn}
	s.run()
	return s.err
}

// ParseTables returns the tables of ScanTables, each with its own copy of
// its source cells.
func ParseTables(src string) []*Table {
	var tables []*Table
	_ = ScanTables(src, func(t *Table) error {
		tables = append(tables, &Table{cells: slices.Clone(t.cells), ends: slices.Clone(t.ends)})
		return nil
	})
	return tables
}

// scanner is the state of one scan.
type scanner struct {
	src   string
	fn    func(*Table) error
	err   error // fn's, which stops the scan
	table Table // the table fn is given
	// frames[:depth] are the open tables, innermost last; frames past depth
	// keep their buffers for the next table opened at that depth.
	frames []*frame
	depth  int
}

func (s *scanner) run() {
	src := s.src
	for i := 0; i < len(src) && s.err == nil; {
		j := strings.IndexByte(src[i:], '<')
		if j < 0 {
			s.text(src[i:])
			break
		}
		at := i + j
		rest := src[at:]
		if len(rest) > 1 && (rest[1] == '!' || rest[1] == '?') {
			s.text(src[i:at])
			closer, from := ">", 2
			if strings.HasPrefix(rest, "<!--") {
				closer, from = "-->", 4
			}
			// An unterminated comment or declaration ends the input.
			i = len(src)
			if e := strings.Index(rest[from:], closer); e >= 0 {
				i = at + from + e + len(closer)
			}
			continue
		}
		gt := strings.IndexByte(rest, '>')
		if gt < 0 {
			s.text(src[i:])
			break
		}
		s.text(src[i:at])
		i = s.tag(src[at+1:at+gt], at+gt+1)
	}
	// Unclosed tables at EOF still count.
	for s.depth > 0 && s.err == nil {
		s.closeTable()
	}
}

// text adds a run of character data to the open cell, if any.
func (s *scanner) text(t string) {
	if f := s.top(); t != "" && f != nil && f.inCell {
		f.add(DecodeEntities(t))
	}
}

// tag acts on the inside of <...>, which ends just before offset next, and
// returns the offset scanning resumes at: next, or past the body of a
// script or style element.
func (s *scanner) tag(raw string, next int) int {
	raw = trimSpace(raw)
	if raw == "" {
		return next
	}
	end := raw[0] == '/'
	if end {
		raw = trimSpace(raw[1:])
	}
	selfClosing := strings.HasSuffix(raw, "/")
	if selfClosing {
		raw = trimSpace(raw[:len(raw)-1])
	}
	j := 0
	for j < len(raw) && !isSpace(raw[j]) {
		j++
	}
	name, f := tagName(raw[:j]), s.top()
	switch {
	case name == "table" && end:
		s.closeTable()
	case name == "table":
		s.push()
	case f == nil:
		// Rows and cells outside any table are ignored.
	case name == "tr":
		f.closeRow()
		f.inRow = !end
	case (name == "td" || name == "th") && end:
		f.closeCell()
	case name == "td" || name == "th":
		f.inRow = true
		f.closeCell()
		f.inCell = true
		f.cell = srcCell{header: name == "th"}
		f.cell.rowSpan, f.cell.colSpan = spans(raw[j:])
	case name == "br" && !end && f.inCell:
		f.add(" ")
	}
	if (name == "script" || name == "style") && !end && !selfClosing {
		if c := indexCloser(s.src[next:], name); c >= 0 {
			return next + c
		}
		return len(s.src)
	}
	return next
}

func (s *scanner) top() *frame {
	if s.depth == 0 {
		return nil
	}
	return s.frames[s.depth-1]
}

func (s *scanner) push() {
	if s.depth == len(s.frames) {
		s.frames = append(s.frames, &frame{})
	}
	f := s.frames[s.depth]
	*f = frame{cells: f.cells[:0], ends: f.ends[:0], more: f.more[:0]}
	s.depth++
}

func (s *scanner) closeTable() {
	if f := s.top(); f != nil {
		f.closeRow()
		s.table = Table{cells: f.cells, ends: f.ends}
		s.err = s.fn(&s.table)
		s.depth--
	}
}

// tagName returns the lower-case name of the element the scanner acts on
// whose name equals s in any letter case, or "". Names that are not ASCII
// are lower-cased by Unicode rules first, under which 'İ' becomes 'i'.
// c|0x20 lower-cases an ASCII letter and maps no other byte to one.
func tagName(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			s = strings.ToLower(s)
			break
		}
	}
	switch {
	case len(s) == 2 && s[0]|0x20 == 't':
		switch s[1] | 0x20 {
		case 'r':
			return "tr"
		case 'd':
			return "td"
		case 'h':
			return "th"
		}
	case len(s) == 2 && s[0]|0x20 == 'b' && s[1]|0x20 == 'r':
		return "br"
	case len(s) == 5 || len(s) == 6:
		for _, n := range [...]string{"table", "style", "script"} {
			if len(s) == len(n) && equalFoldASCII(s, n) {
				return n
			}
		}
	}
	return ""
}

// spans reads the rowspan and colspan of a cell from the attribute text of
// its start tag. Values may be quoted or not; of repeated attributes the
// last counts. No rune outside ASCII lower-cases to a letter of either
// name, so ASCII case folding matches them exactly.
func spans(attrs string) (rowSpan, colSpan uint16) {
	var rs, cs string
	for k := 0; k < len(attrs); {
		for k < len(attrs) && isSpace(attrs[k]) {
			k++
		}
		if k >= len(attrs) {
			break
		}
		start := k
		for k < len(attrs) && attrs[k] != '=' && !isSpace(attrs[k]) {
			k++
		}
		name, val := attrs[start:k], ""
		for k < len(attrs) && isSpace(attrs[k]) {
			k++
		}
		if k < len(attrs) && attrs[k] == '=' {
			k++
			for k < len(attrs) && isSpace(attrs[k]) {
				k++
			}
			vs := k
			if k < len(attrs) && (attrs[k] == '"' || attrs[k] == '\'') {
				q := attrs[k]
				k++
				vs = k
				for k < len(attrs) && attrs[k] != q {
					k++
				}
				val = attrs[vs:k]
				if k < len(attrs) {
					k++
				}
			} else {
				for k < len(attrs) && !isSpace(attrs[k]) {
					k++
				}
				val = attrs[vs:k]
			}
		}
		switch {
		case len(name) == 7 && equalFoldASCII(name, "rowspan"):
			rs = val
		case len(name) == 7 && equalFoldASCII(name, "colspan"):
			cs = val
		}
	}
	return spanValue(rs, maxRowSpan), spanValue(cs, maxColSpan)
}

// spanValue reads a span attribute value: a missing or invalid value
// (non-numeric or below 1) means 1, and values above limit are clamped to
// it.
func spanValue(v string, limit int) uint16 {
	if v == "" {
		return 1
	}
	if n, err := strconv.Atoi(strings.TrimSpace(DecodeEntities(v))); err == nil && n >= 1 {
		return uint16(min(n, limit))
	}
	return 1
}

// indexCloser returns the offset in s of the first "</" followed by name
// in any ASCII letter case, or -1. name is lower-case ASCII.
func indexCloser(s, name string) int {
	for off := 0; ; {
		j := strings.Index(s[off:], "</")
		if j < 0 {
			return -1
		}
		at := off + j
		if k := at + 2; len(s)-k >= len(name) && equalFoldASCII(s[k:k+len(name)], name) {
			return at
		}
		off = at + 1
	}
}

// equalFoldASCII reports whether s equals the lower-case ASCII string lower
// after lower-casing s's ASCII letters.
func equalFoldASCII(s, lower string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// trimSpace is strings.TrimSpace, without the call when s starts and ends
// in ASCII other than white space.
func trimSpace(s string) string {
	if s != "" && ' ' < s[0] && s[0] < utf8.RuneSelf && ' ' < s[len(s)-1] && s[len(s)-1] < utf8.RuneSelf {
		return s
	}
	return strings.TrimSpace(s)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
