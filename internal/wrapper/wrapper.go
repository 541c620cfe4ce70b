// Package wrapper implements DART's table wrapper (Section 6.2): matching
// table rows against designer-specified row patterns, scoring each cell
// match, combining cell scores with a t-norm, choosing the best pattern per
// row, and constructing row pattern instances in which incorrect lexical
// items have been replaced by their most similar valid item (msi) — the
// wrapper-level repair of non-numerical strings described in the paper.
package wrapper

import (
	"fmt"
	"strings"

	"dart/internal/htmlx"
	"dart/internal/lexicon"
)

// CellKind is the content specification of a row-pattern cell: a designer
// domain or one of the standard domains.
type CellKind int

const (
	// KindDomain expects a lexical item of the cell's Domain.
	KindDomain CellKind = iota
	// KindInteger expects an integer literal.
	KindInteger
	// KindReal expects a numeric literal.
	KindReal
	// KindString expects any non-empty text.
	KindString
)

// String names the kind.
func (k CellKind) String() string {
	switch k {
	case KindDomain:
		return "domain"
	case KindInteger:
		return "Integer"
	case KindReal:
		return "Real"
	default:
		return "String"
	}
}

// PatternCell is one cell of a row pattern: the headline names its
// semantics (used by the database generator), Kind/Domain specify the
// expected content, and SpecializationOf >= 0 requires the matched item to
// be a specialization of the item matched in that earlier cell (the arrow
// of Fig. 7(a)).
type PatternCell struct {
	Headline         string
	Kind             CellKind
	Domain           *lexicon.Domain
	SpecializationOf int
}

// RowPattern specifies structure and content of one row shape (Fig. 7(a)).
type RowPattern struct {
	Name  string
	Cells []PatternCell
}

// Validate checks internal consistency of the pattern.
func (p *RowPattern) Validate() error {
	for i, c := range p.Cells {
		if c.Headline == "" {
			return fmt.Errorf("wrapper: pattern %s cell %d has no headline", p.Name, i)
		}
		if c.Kind == KindDomain && c.Domain == nil {
			return fmt.Errorf("wrapper: pattern %s cell %s has kind domain but no domain", p.Name, c.Headline)
		}
		if c.SpecializationOf >= i {
			return fmt.Errorf("wrapper: pattern %s cell %s: specialization must reference an earlier cell", p.Name, c.Headline)
		}
		if c.SpecializationOf >= 0 && p.Cells[c.SpecializationOf].Kind != KindDomain {
			return fmt.Errorf("wrapper: pattern %s cell %s: specialization target must be a domain cell", p.Name, c.Headline)
		}
	}
	return nil
}

// CellMatch is the binding of one pattern cell in an instance: the item (or
// normalized literal) the cell was bound to and the matching score. A
// literal is part of a copy of its table's texts, so values outlive the
// document they came from without keeping it alive.
type CellMatch struct {
	Value string
	Score float64
}

// Instance is a row pattern instance (Fig. 7(b)): one document row matched
// against its best row pattern.
type Instance struct {
	Pattern *RowPattern
	Cells   []CellMatch
	// Score is the t-norm combination of the cell scores.
	Score float64
	// Table and Row locate the source row within the document.
	Table, Row int
	// Raw holds the document's original cell texts the instance was
	// matched from, copied out of the document with the rest of its
	// table's texts.
	Raw []string
}

// Correction records one string repair the wrapper performed: a cell whose
// raw text was not a valid lexical item and was replaced by its most
// similar one ("incorrect items in the input tables are transformed into
// the most similar valid lexical items", Section 6.2).
type Correction struct {
	Table, Row int
	Headline   string
	From, To   string
	Score      float64
}

// Corrections lists the string repairs embodied in the instance. From is a
// copy: it does not keep the source document alive.
func (in *Instance) Corrections() []Correction {
	var out []Correction
	for i, pc := range in.Pattern.Cells {
		if pc.Kind != KindDomain || i >= len(in.Raw) || in.Cells[i].Score >= 1 {
			continue
		}
		if from := htmlx.CollapseSpace(in.Raw[i]); in.Cells[i].Value != from {
			out = append(out, Correction{
				Table: in.Table, Row: in.Row,
				Headline: pc.Headline,
				From:     strings.Clone(from),
				To:       in.Cells[i].Value,
				Score:    in.Cells[i].Score,
			})
		}
	}
	return out
}

// Get returns the value bound to the cell with the given headline.
func (in *Instance) Get(headline string) (string, bool) {
	for i, c := range in.Pattern.Cells {
		if c.Headline == headline {
			return in.Cells[i].Value, true
		}
	}
	return "", false
}

// Wrapper drives extraction: it matches every row of every table of an
// input HTML document against its row patterns.
type Wrapper struct {
	Patterns []*RowPattern
	// Hierarchy supplies the specialization relation for patterns using it.
	Hierarchy *lexicon.Hierarchy
	// TNorm combines cell scores into the row score (default: min).
	TNorm lexicon.TNorm
	// MinScore is the acceptance threshold for instances; rows whose best
	// match scores below it are reported as skipped (default 0.5).
	MinScore float64
	// TableFilter optionally restricts extraction to specific tables by
	// index (the extraction metadata's "position inside the document").
	TableFilter func(tableIndex int) bool
}

// Skipped describes a document row no pattern matched acceptably.
type Skipped struct {
	Table, Row int
	BestScore  float64
	Text       string
}

// Extract parses the HTML document and returns the accepted row pattern
// instances in document order, plus the rows that matched no pattern. It
// expands the tables TableFilter selects one at a time, as the scan closes
// them; a table whose rowspan/colspan expansion exceeds htmlx's grid bound
// fails the call.
func (w *Wrapper) Extract(html string) ([]*Instance, []Skipped, error) {
	for _, p := range w.Patterns {
		if err := p.Validate(); err != nil {
			return nil, nil, err
		}
	}
	if len(w.Patterns) == 0 {
		return nil, nil, fmt.Errorf("wrapper: no row patterns")
	}
	minScore := w.MinScore
	if minScore == 0 {
		minScore = 0.5
	}
	x := &extraction{Wrapper: w}
	var instances []*Instance
	var skipped []Skipped
	ti := -1
	err := htmlx.ScanTables(html, func(table *htmlx.Table) error {
		if ti++; w.TableFilter != nil && !w.TableFilter(ti) {
			return nil
		}
		grid, err := table.Grid()
		if err != nil {
			return fmt.Errorf("wrapper: table %d: %w", ti, err)
		}
		if len(grid) == 0 {
			return nil
		}
		rows, nonEmpty, cellCount := tableTexts(grid)
		// The table's instances and their cell matches come from one array
		// each, sized for every row with cells.
		insts := make([]Instance, 0, nonEmpty)
		matches := make([]CellMatch, 0, cellCount)
		for ri, cells := range rows {
			if len(cells) == 0 {
				continue
			}
			best := x.matchRow(cells)
			if best == nil || best.Score < minScore {
				sc := 0.0
				if best != nil {
					sc = best.Score
				}
				// Join returns a single cell as is; the copy detaches it
				// from the table's texts.
				skipped = append(skipped, Skipped{Table: ti, Row: ri, BestScore: sc, Text: strings.Clone(strings.Join(cells, " | "))})
				continue
			}
			insts = append(insts, *best)
			in := &insts[len(insts)-1]
			in.Cells = append(matches[len(matches):len(matches):cap(matches)], best.Cells...)
			matches = matches[:len(matches)+len(in.Cells)]
			in.Table, in.Row = ti, ri
			instances = append(instances, in)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return instances, skipped, nil
}

// tableTexts returns the texts of each row's present cells, without the
// trailing empty ones, which are padding artifacts, not content, plus the
// number of rows left with cells and of their cells. The texts are
// substrings of one copy of all of them, so they do not keep the document
// alive.
func tableTexts(grid [][]htmlx.GridCell) (rows [][]string, nonEmpty, cells int) {
	size, n := 0, 0
	for _, row := range grid {
		for _, c := range row {
			if c.Present {
				size += len(c.Text)
				n++
			}
		}
	}
	var b strings.Builder
	b.Grow(size)
	for _, row := range grid {
		for _, c := range row {
			if c.Present {
				b.WriteString(c.Text)
			}
		}
	}
	all, pos := b.String(), 0
	texts := make([]string, 0, n)
	rows = make([][]string, len(grid))
	for ri, row := range grid {
		start := len(texts)
		for _, c := range row {
			if c.Present {
				texts = append(texts, all[pos:pos+len(c.Text)])
				pos += len(c.Text)
			}
		}
		row := texts[start:len(texts):len(texts)]
		for len(row) > 0 && row[len(row)-1] == "" {
			row = row[:len(row)-1]
		}
		if len(row) > 0 {
			nonEmpty++
			cells += len(row)
		}
		rows[ri] = row
	}
	return rows, nonEmpty, cells
}

// extraction is the state of one Extract call. It memoizes domain
// matches: a document repeats few distinct lexical texts and parent items,
// so each match is computed once per call rather than once per row. The
// memo dies with the call, which keeps concurrent Extract calls on one
// Wrapper independent; restricted domains are built once by the hierarchy
// (lexicon.Hierarchy.Restrict). Two scratch instances hold the candidates
// of the row being matched.
type extraction struct {
	*Wrapper
	matched map[domainQuery]CellMatch
	scratch [2]Instance
	scores  []float64
}

// domainQuery identifies a domain match: the pattern cell, the parent
// item its specialization constraint names ("" without one) and the text.
type domainQuery struct {
	cell         *PatternCell
	parent, text string
}

// matchRow evaluates every pattern on the row's cell texts and returns the
// best-scoring instance (nil when no pattern has the row's arity). The
// instance is scratch, valid until the next call.
func (x *extraction) matchRow(cells []string) *Instance {
	var best *Instance
	for _, p := range x.Patterns {
		if len(p.Cells) != len(cells) {
			continue
		}
		in := &x.scratch[0]
		if in == best {
			in = &x.scratch[1]
		}
		x.matchPattern(in, p, cells)
		if best == nil || in.Score > best.Score {
			best = in
		}
	}
	return best
}

// matchPattern binds each cell of the row to the pattern, filling in with
// the per-cell scores (Example 13's 90% score for "bgnning cesh" against
// the Subsection domain arises here). Candidate instances of one row
// share its cells slice as Raw; nothing writes to it. The cells come from
// htmlx grids, whose texts are already collapsed (CollapseSpace).
func (x *extraction) matchPattern(in *Instance, p *RowPattern, cells []string) {
	*in = Instance{Pattern: p, Cells: in.Cells[:0], Raw: cells}
	x.scores = x.scores[:0]
	for i := range p.Cells {
		pc := &p.Cells[i]
		text := cells[i]
		var cm CellMatch
		switch pc.Kind {
		case KindInteger:
			cm = matchInteger(text)
		case KindReal:
			cm = matchReal(text)
		case KindString:
			if text != "" {
				cm = CellMatch{Value: text, Score: 1}
			}
		case KindDomain:
			cm = x.matchDomain(pc, in, text)
		}
		in.Cells = append(in.Cells, cm)
		x.scores = append(x.scores, cm.Score)
	}
	in.Score = x.TNorm.Combine(x.scores)
}

// matchDomain finds the most similar item of the cell's domain, restricted
// to items satisfying the cell's hierarchical relationship when one is
// specified (footnote 4 of the paper); when no item satisfies it, the full
// domain is used with a score penalty. Each distinct query is answered
// once per call.
func (x *extraction) matchDomain(pc *PatternCell, in *Instance, text string) CellMatch {
	q := domainQuery{cell: pc, text: text}
	restricted := pc.SpecializationOf >= 0 && x.Hierarchy != nil
	if restricted {
		q.parent = in.Cells[pc.SpecializationOf].Value
	}
	if cm, ok := x.matched[q]; ok {
		return cm
	}
	var cm CellMatch
	if restricted {
		if m, ok := x.Hierarchy.Restrict(pc.Domain, q.parent).BestMatch(text); ok {
			cm = CellMatch{Value: m.Item, Score: m.Score}
		} else if m, ok := pc.Domain.BestMatch(text); ok {
			// No item specializes the parent: fall back, penalized.
			cm = CellMatch{Value: m.Item, Score: m.Score * 0.5}
		}
	} else if m, ok := pc.Domain.BestMatch(text); ok {
		cm = CellMatch{Value: m.Item, Score: m.Score}
	}
	if x.matched == nil {
		x.matched = map[domainQuery]CellMatch{}
	}
	x.matched[q] = cm
	return cm
}

// matchInteger scores integer literals: exact integers score 1; text whose
// digit content dominates scores partially after stripping grouping
// characters; non-numeric text scores 0.
func matchInteger(text string) CellMatch {
	clean := strings.Map(func(r rune) rune {
		if r == ' ' || r == ',' {
			return -1
		}
		return r
	}, text)
	if isInt(clean) {
		return CellMatch{Value: clean, Score: 1}
	}
	// Count digit fraction as a weak score so a smudged number still beats
	// a string pattern, without being accepted as a clean integer.
	digits := 0
	for i := 0; i < len(clean); i++ {
		if clean[i] >= '0' && clean[i] <= '9' {
			digits++
		}
	}
	if len(clean) == 0 || digits == 0 {
		return CellMatch{Value: text}
	}
	return CellMatch{Value: clean, Score: 0.5 * float64(digits) / float64(len(clean))}
}

func matchReal(text string) CellMatch {
	clean := strings.ReplaceAll(text, " ", "")
	mantissa := strings.Replace(clean, ".", "", 1)
	if isInt(mantissa) {
		return CellMatch{Value: clean, Score: 1}
	}
	return CellMatch{Value: text}
}

func isInt(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '-' {
		s = s[1:]
		if s == "" {
			return false
		}
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
