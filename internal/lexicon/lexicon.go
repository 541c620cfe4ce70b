// Package lexicon implements the linguistic metadata of Section 6.2: domain
// descriptions (sets of lexical items), hierarchical relationships between
// items of different domains (Fig. 6), string similarity scoring for the
// wrapper's cell matching, t-norms for combining cell scores into row
// scores, and dictionary-based spelling correction of non-numerical strings
// damaged during acquisition.
package lexicon

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"
)

// Levenshtein computes the edit distance between two strings (unit-cost
// insertions, deletions, substitutions), operating on bytes: the OCR
// confusions DART repairs are single-symbol slips, for which byte distance
// coincides with rune distance on the ASCII documents targeted.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	// The distance is symmetric: keep the rows along the shorter string.
	if len(b) > len(a) {
		a, b = b, a
	}
	la, lb := len(a), len(b)
	if lb == 0 {
		return la
	}
	// Rows for the lexical items and cell texts the wrapper compares fit
	// in a stack buffer.
	const stackRow = 64
	var buf [2 * stackRow]int
	var prev, cur []int
	if lb < stackRow {
		prev, cur = buf[:lb+1], buf[stackRow:stackRow+lb+1]
	} else {
		prev, cur = make([]int, lb+1), make([]int, lb+1)
	}
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

// DamerauLevenshtein additionally counts adjacent transpositions as one
// edit (the restricted variant).
func DamerauLevenshtein(a, b string) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	rows := make([][]int, la+1)
	for i := range rows {
		rows[i] = make([]int, lb+1)
		rows[i][0] = i
	}
	for j := 0; j <= lb; j++ {
		rows[0][j] = j
	}
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d := min3(rows[i-1][j]+1, rows[i][j-1]+1, rows[i-1][j-1]+cost)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if t := rows[i-2][j-2] + 1; t < d {
					d = t
				}
			}
			rows[i][j] = d
		}
	}
	return rows[la][lb]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Similarity maps edit distance into [0, 1]: 1 for identical strings,
// falling linearly with distance relative to the longer string. Comparison
// is case-insensitive with surrounding whitespace ignored, matching how the
// wrapper normalizes cell text.
func Similarity(a, b string) float64 {
	return similarity(Normalize(a), Normalize(b))
}

// similarity is Similarity on already normalized strings.
func similarity(a, b string) float64 {
	if a == b {
		return 1
	}
	m := max(len(a), len(b))
	s := 1 - float64(Levenshtein(a, b))/float64(m)
	if s < 0 {
		return 0
	}
	return s
}

// lengthBound is an upper bound on similarity(a, b) for strings of lengths
// la and lb, not both zero: the edit distance is at least the length
// difference. Division and subtraction are monotone under rounding, so the
// bound also holds for the float64 similarity computes.
func lengthBound(la, lb int) float64 {
	d := la - lb
	if d < 0 {
		d = -d
	}
	return 1 - float64(d)/float64(max(la, lb))
}

// Normalize lower-cases and collapses internal whitespace.
func Normalize(s string) string {
	normal := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return strings.Join(strings.Fields(strings.ToLower(s)), " ")
		}
		if 'A' <= c && c <= 'Z' || isSpace(c) && (c != ' ' || i == 0 || i == len(s)-1 || s[i+1] == ' ') {
			normal = false
		}
	}
	if normal {
		return s
	}
	// ASCII: lower-case and collapse in one pass, exactly as the general
	// path does.
	b := make([]byte, 0, len(s))
	space := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if isSpace(c) {
			space = len(b) > 0
			continue
		}
		if space {
			b = append(b, ' ')
			space = false
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return string(b)
}

// isSpace reports the ASCII bytes strings.Fields splits on.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// Domain is a named set of lexical items (a domain description). Each item
// is stored with its normalized form, so matching normalizes only the
// query.
type Domain struct {
	Name  string
	items []string
	norm  []string       // norm[i] is Normalize(items[i])
	set   map[string]int // normalized form -> index into items
}

// NewDomain creates a domain with the given items. Items are kept verbatim
// for output but matched in normalized form.
func NewDomain(name string, items ...string) *Domain {
	d := &Domain{Name: name, set: map[string]int{}}
	for _, it := range items {
		d.Add(it)
	}
	return d
}

// Add inserts an item (idempotent under normalization: the first item of
// each normalized form is kept).
func (d *Domain) Add(item string) {
	key := Normalize(item)
	if _, dup := d.set[key]; !dup {
		d.set[key] = len(d.items)
		d.items = append(d.items, item)
		d.norm = append(d.norm, key)
	}
}

// Items returns the items in insertion order.
func (d *Domain) Items() []string { return append([]string(nil), d.items...) }

// Contains reports whether the string is an item of the domain (normalized
// comparison).
func (d *Domain) Contains(s string) bool {
	_, ok := d.set[Normalize(s)]
	return ok
}

// Match is the result of matching a string against a domain.
type Match struct {
	Item  string
	Score float64
}

// BestMatch returns the most similar lexical item (msi in the paper's
// wrapper description) together with its similarity score; ties go to the
// earliest item. ok is false for an empty domain.
//
// The result is exactly that of scoring every item with Similarity. An item
// equal to the query after normalization scores 1, and no other item can,
// because Add keeps one item per normalized form; so it is returned
// directly. Otherwise an item is skipped when its length bound cannot beat
// the best score so far, which never changes the first-wins winner.
func (d *Domain) BestMatch(s string) (Match, bool) {
	if len(d.items) == 0 {
		return Match{}, false
	}
	q := Normalize(s)
	if i, ok := d.set[q]; ok {
		return Match{Item: d.items[i], Score: 1}, true
	}
	best := Match{Score: -1}
	for i, it := range d.norm {
		if lengthBound(len(q), len(it)) <= best.Score {
			continue
		}
		if sc := similarity(q, it); sc > best.Score {
			best = Match{Item: d.items[i], Score: sc}
		}
	}
	return best, true
}

// Hierarchy stores the hierarchical relationships of Fig. 6: item a of one
// domain is a specialization of item b of another. Keys are normalized.
type Hierarchy struct {
	parents map[string]map[string]bool
	// restricted holds Restrict's answers: restriction -> *Domain.
	restricted sync.Map
}

// restriction identifies one answer of Restrict.
type restriction struct {
	domain *Domain
	parent string
}

// NewHierarchy creates an empty hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{parents: map[string]map[string]bool{}}
}

// AddSpecialization records that child is a specialization of parent.
func (h *Hierarchy) AddSpecialization(child, parent string) {
	c := Normalize(child)
	if h.parents[c] == nil {
		h.parents[c] = map[string]bool{}
	}
	h.parents[c][Normalize(parent)] = true
	h.restricted.Range(func(key, _ any) bool {
		h.restricted.Delete(key)
		return true
	})
}

// Restrict returns the items of d that are specializations of parent, in
// d's order: the domain a wrapper cell matches against when the cell must
// specialize the item of an earlier one. The answer depends only on the
// hierarchy and the domain, so it is built once per (domain, parent) and
// shared by every caller, across goroutines. AddSpecialization drops the
// answers built so far; d must not change once restricted.
func (h *Hierarchy) Restrict(d *Domain, parent string) *Domain {
	key := restriction{domain: d, parent: parent}
	if r, ok := h.restricted.Load(key); ok {
		return r.(*Domain)
	}
	r := NewDomain(d.Name)
	for _, item := range d.items {
		if h.IsSpecializationOf(item, parent) {
			r.Add(item)
		}
	}
	// A concurrent caller may have built the same answer: keep one.
	got, _ := h.restricted.LoadOrStore(key, r)
	return got.(*Domain)
}

// IsSpecializationOf reports whether child is a (direct or transitive)
// specialization of parent.
func (h *Hierarchy) IsSpecializationOf(child, parent string) bool {
	c, p := Normalize(child), Normalize(parent)
	if c == p {
		return false
	}
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(cur string) bool {
		if seen[cur] {
			return false
		}
		seen[cur] = true
		for up := range h.parents[cur] {
			if up == p || walk(up) {
				return true
			}
		}
		return false
	}
	return walk(c)
}

// Parents returns the direct generalizations of an item, sorted.
func (h *Hierarchy) Parents(child string) []string {
	var out []string
	for p := range h.parents[Normalize(child)] {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// TNorm is a triangular norm used to combine per-cell matching scores into
// a row-pattern-instance score (Section 6.2: "a suitable t-norm").
type TNorm int

const (
	// TNormMin is the Gödel t-norm: min(a, b).
	TNormMin TNorm = iota
	// TNormProduct is the product t-norm: a*b.
	TNormProduct
	// TNormLukasiewicz is max(0, a+b-1).
	TNormLukasiewicz
)

// String names the t-norm.
func (t TNorm) String() string {
	switch t {
	case TNormMin:
		return "min"
	case TNormProduct:
		return "product"
	case TNormLukasiewicz:
		return "lukasiewicz"
	default:
		return fmt.Sprintf("TNorm(%d)", int(t))
	}
}

// Combine folds the t-norm over the scores; the empty combination is 1
// (the t-norm identity).
func (t TNorm) Combine(scores []float64) float64 {
	acc := 1.0
	for _, s := range scores {
		switch t {
		case TNormMin:
			if s < acc {
				acc = s
			}
		case TNormProduct:
			acc *= s
		case TNormLukasiewicz:
			acc = acc + s - 1
			if acc < 0 {
				acc = 0
			}
		}
	}
	return acc
}

// Corrector performs dictionary-based spelling correction against a domain:
// strings whose best match reaches MinScore are replaced by the matched
// lexical item (the wrapper's repair of non-numerical strings).
type Corrector struct {
	Domain   *Domain
	MinScore float64
}

// Correct returns the corrected string, its match score, and whether the
// correction (or exact match) succeeded. Inputs already in the domain
// return themselves with score 1.
func (c *Corrector) Correct(s string) (string, float64, bool) {
	m, ok := c.Domain.BestMatch(s)
	if !ok {
		return s, 0, false
	}
	if m.Score >= c.MinScore {
		return m.Item, m.Score, true
	}
	return s, m.Score, false
}
