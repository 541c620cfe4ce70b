package lexicon

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLevenshtein(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"beginning cash", "bgnning cesh", 3}, // the paper's Example 13 slip
	}
	for _, tc := range tests {
		if got := Levenshtein(tc.a, tc.b); got != tc.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDamerauLevenshtein(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"abcd", "abdc", 1}, // one transposition
		{"abcd", "abcd", 0},
		{"ca", "abc", 3}, // restricted Damerau classic
		{"receipts", "reciepts", 1},
		{"", "ab", 2},
	}
	for _, tc := range tests {
		if got := DamerauLevenshtein(tc.a, tc.b); got != tc.want {
			t.Errorf("DamerauLevenshtein(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	symmetric := func(a, b string) bool { return Levenshtein(a, b) == Levenshtein(b, a) }
	if err := quick.Check(symmetric, cfg); err != nil {
		t.Error("symmetry:", err)
	}
	identity := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(identity, cfg); err != nil {
		t.Error("identity:", err)
	}
	triangle := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(triangle, cfg); err != nil {
		t.Error("triangle inequality:", err)
	}
	damerauLeq := func(a, b string) bool { return DamerauLevenshtein(a, b) <= Levenshtein(a, b) }
	if err := quick.Check(damerauLeq, cfg); err != nil {
		t.Error("Damerau <= Levenshtein:", err)
	}
}

func TestSimilarity(t *testing.T) {
	if s := Similarity("beginning cash", "Beginning   Cash"); s != 1 {
		t.Errorf("normalized identical strings: %v", s)
	}
	if s := Similarity("", ""); s != 1 {
		t.Errorf("empty strings: %v", s)
	}
	s := Similarity("bgnning cesh", "beginning cash")
	if s <= 0.7 || s >= 1 {
		t.Errorf("Similarity(bgnning cesh, beginning cash) = %v, want in (0.7, 1)", s)
	}
	if s := Similarity("abc", "xyz"); s != 0 {
		t.Errorf("disjoint strings: %v", s)
	}
	prop := func(a, b string) bool {
		s := Similarity(a, b)
		return s >= 0 && s <= 1 && math.Abs(s-Similarity(b, a)) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestDomainBestMatch(t *testing.T) {
	d := NewDomain("Subsection",
		"beginning cash", "cash sales", "receivables", "total cash receipts")
	if !d.Contains("Beginning Cash") {
		t.Error("Contains should normalize")
	}
	if d.Contains("nope") {
		t.Error("Contains(nope)")
	}
	m, ok := d.BestMatch("bgnning cesh")
	if !ok || m.Item != "beginning cash" {
		t.Errorf("BestMatch = %+v, %v", m, ok)
	}
	if m.Score <= 0.7 {
		t.Errorf("score = %v", m.Score)
	}
	m, _ = d.BestMatch("cash sales")
	if m.Score != 1 {
		t.Errorf("exact match score = %v", m.Score)
	}
	if _, ok := NewDomain("empty").BestMatch("x"); ok {
		t.Error("empty domain should report no match")
	}
	// Add is idempotent under normalization.
	d.Add("CASH SALES")
	if len(d.Items()) != 4 {
		t.Errorf("Items = %v", d.Items())
	}
}

func TestHierarchy(t *testing.T) {
	h := NewHierarchy()
	h.AddSpecialization("beginning cash", "Receipts")
	h.AddSpecialization("cash sales", "Receipts")
	h.AddSpecialization("Receipts", "CashBudgetEntry")
	if !h.IsSpecializationOf("beginning cash", "Receipts") {
		t.Error("direct specialization")
	}
	if !h.IsSpecializationOf("beginning cash", "CashBudgetEntry") {
		t.Error("transitive specialization")
	}
	if h.IsSpecializationOf("Receipts", "beginning cash") {
		t.Error("reverse direction must fail")
	}
	if h.IsSpecializationOf("Receipts", "Receipts") {
		t.Error("an item is not a specialization of itself")
	}
	if got := h.Parents("beginning cash"); len(got) != 1 || got[0] != "receipts" {
		t.Errorf("Parents = %v", got)
	}
	// Cycles must not loop forever.
	h.AddSpecialization("a", "b")
	h.AddSpecialization("b", "a")
	if h.IsSpecializationOf("a", "zzz") {
		t.Error("cycle should not reach zzz")
	}
}

// TestRestrict: a restricted domain holds the items that specialize the
// parent, in domain order; it is built once and shared, also by
// concurrent callers (run under -race), and AddSpecialization drops it.
func TestRestrict(t *testing.T) {
	h := NewHierarchy()
	h.AddSpecialization("beginning cash", "Receipts")
	h.AddSpecialization("cash sales", "Receipts")
	h.AddSpecialization("payment of accounts", "Disbursements")
	d := NewDomain("Subsection", "cash sales", "payment of accounts", "beginning cash")
	const goroutines = 4
	got := make([]*Domain, goroutines)
	done := make(chan int)
	for g := 0; g < goroutines; g++ {
		go func() {
			got[g] = h.Restrict(d, "Receipts")
			done <- g
		}()
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	for _, r := range got {
		if r != got[0] {
			t.Fatal("concurrent callers got different restricted domains")
		}
	}
	if items := got[0].Items(); len(items) != 2 || items[0] != "cash sales" || items[1] != "beginning cash" {
		t.Errorf("Restrict(Receipts) = %v", items)
	}
	if h.Restrict(d, "Receipts") != got[0] {
		t.Error("a repeated restriction was built again")
	}
	h.AddSpecialization("payment of accounts", "Receipts")
	if items := h.Restrict(d, "Receipts").Items(); len(items) != 3 {
		t.Errorf("after AddSpecialization, Restrict(Receipts) = %v", items)
	}
}

func TestTNorms(t *testing.T) {
	scores := []float64{0.9, 1.0, 0.8}
	tests := []struct {
		tn   TNorm
		want float64
	}{
		{TNormMin, 0.8},
		{TNormProduct, 0.72},
		{TNormLukasiewicz, 0.7},
	}
	for _, tc := range tests {
		if got := tc.tn.Combine(scores); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s.Combine = %v, want %v", tc.tn, got, tc.want)
		}
	}
	for _, tn := range []TNorm{TNormMin, TNormProduct, TNormLukasiewicz} {
		if got := tn.Combine(nil); got != 1 {
			t.Errorf("%s.Combine(nil) = %v, want 1 (identity)", tn, got)
		}
	}
	// t-norm axioms on sampled values: bounded by min, monotone, identity 1.
	prop := func(a, b uint8) bool {
		x, y := float64(a)/255, float64(b)/255
		for _, tn := range []TNorm{TNormMin, TNormProduct, TNormLukasiewicz} {
			v := tn.Combine([]float64{x, y})
			if v < 0 || v > math.Min(x, y)+1e-12 {
				return false
			}
			if one := tn.Combine([]float64{x, 1}); math.Abs(one-x) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestCorrector(t *testing.T) {
	d := NewDomain("Subsection", "beginning cash", "cash sales", "receivables")
	c := &Corrector{Domain: d, MinScore: 0.7}
	got, score, ok := c.Correct("bgnning cesh")
	if !ok || got != "beginning cash" || score <= 0.7 {
		t.Errorf("Correct = %q, %v, %v", got, score, ok)
	}
	got, score, ok = c.Correct("cash sales")
	if !ok || got != "cash sales" || score != 1 {
		t.Errorf("exact Correct = %q, %v, %v", got, score, ok)
	}
	got, _, ok = c.Correct("totally unrelated text")
	if ok || got != "totally unrelated text" {
		t.Errorf("low-score Correct = %q, %v", got, ok)
	}
	empty := &Corrector{Domain: NewDomain("empty"), MinScore: 0.5}
	if _, _, ok := empty.Correct("x"); ok {
		t.Error("empty domain cannot correct")
	}
}

func TestTNormString(t *testing.T) {
	if TNormMin.String() != "min" || TNormProduct.String() != "product" || TNormLukasiewicz.String() != "lukasiewicz" {
		t.Error("TNorm names")
	}
}
