package wrapper_test

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"dart/internal/docgen"
	"dart/internal/htmlx"
	"dart/internal/lexicon"
	"dart/internal/runningex"
	"dart/internal/scenario"
	"dart/internal/wrapper"
)

func budgetWrapper(t *testing.T) *wrapper.Wrapper {
	t.Helper()
	md, err := scenario.CashBudget()
	if err != nil {
		t.Fatal(err)
	}
	return md.NewWrapper()
}

func TestExtractRunningExample(t *testing.T) {
	w := budgetWrapper(t)
	html := docgen.RunningExampleDocument().HTML()
	instances, skipped, err := w.Extract(html)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Errorf("skipped rows: %+v", skipped)
	}
	if len(instances) != 20 {
		t.Fatalf("instances = %d, want 20", len(instances))
	}
	// The first instance binds the Fig. 7(b) values.
	in := instances[0]
	checks := map[string]string{
		"Year": "2003", "Section": "Receipts", "Subsection": "beginning cash", "Value": "20",
	}
	for h, want := range checks {
		got, ok := in.Get(h)
		if !ok || got != want {
			t.Errorf("Get(%s) = %q, %v; want %q", h, got, ok, want)
		}
	}
	if in.Score != 1 {
		t.Errorf("clean row score = %v, want 1", in.Score)
	}
	if _, ok := in.Get("Nope"); ok {
		t.Error("Get(Nope) should fail")
	}
}

func TestExample13MisspelledSubsection(t *testing.T) {
	// "bgnning cesh" must bind to "beginning cash" with a sub-100% score
	// for that cell and a sub-100% row score (Fig. 7(b) shows 90%).
	doc := docgen.RunningExampleDocument()
	doc.Tables[0].Rows[0][2].Text = "bgnning cesh"
	w := budgetWrapper(t)
	instances, skipped, err := w.Extract(doc.HTML())
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || len(instances) != 20 {
		t.Fatalf("instances=%d skipped=%d", len(instances), len(skipped))
	}
	in := instances[0]
	got, _ := in.Get("Subsection")
	if got != "beginning cash" {
		t.Errorf("msi substitution = %q, want 'beginning cash'", got)
	}
	if in.Score >= 1 || in.Score < 0.5 {
		t.Errorf("row score = %v, want in [0.5, 1)", in.Score)
	}
	// With the min t-norm the row score equals the bad cell's score.
	if in.Cells[2].Score != in.Score {
		t.Errorf("cell score %v != row score %v under min t-norm", in.Cells[2].Score, in.Score)
	}
}

func TestHierarchyRestrictsSubsectionToSection(t *testing.T) {
	// A subsection corrupted toward an item of a *different* section must
	// still be corrected within its own section thanks to the
	// specialization constraint: 'receivables' under Disbursements would be
	// wrong, so a heavily damaged 'payment of accounts' must stay in the
	// Disbursements items.
	doc := docgen.RunningExampleDocument()
	doc.Tables[0].Rows[4][1].Text = "paymnt of acounts"
	w := budgetWrapper(t)
	instances, _, err := w.Extract(doc.HTML())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := instances[4].Get("Subsection")
	if got != "payment of accounts" {
		t.Errorf("corrected to %q, want 'payment of accounts'", got)
	}
}

func TestSpecializationFallbackPenalty(t *testing.T) {
	// A pattern whose hierarchy admits no specializations for the matched
	// parent must fall back with a penalty instead of failing.
	sec := lexicon.NewDomain("Sec", "Alpha")
	sub := lexicon.NewDomain("Sub", "one", "two")
	h := lexicon.NewHierarchy() // deliberately empty: nothing specializes Alpha
	w := &wrapper.Wrapper{
		Patterns: []*wrapper.RowPattern{{
			Name: "p",
			Cells: []wrapper.PatternCell{
				{Headline: "S", Kind: wrapper.KindDomain, Domain: sec, SpecializationOf: -1},
				{Headline: "U", Kind: wrapper.KindDomain, Domain: sub, SpecializationOf: 0},
			},
		}},
		Hierarchy: h,
		MinScore:  0.1,
	}
	instances, _, err := w.Extract(`<table><tr><td>Alpha</td><td>one</td></tr></table>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 1 {
		t.Fatalf("instances = %d", len(instances))
	}
	if got := instances[0].Cells[1].Score; got != 0.5 {
		t.Errorf("penalized score = %v, want 0.5", got)
	}
}

func TestBestPatternSelection(t *testing.T) {
	// Two patterns of the same arity: the wrapper must pick per row.
	numbers := lexicon.NewDomain("Numbers", "one", "two", "three")
	colors := lexicon.NewDomain("Colors", "red", "green", "blue")
	w := &wrapper.Wrapper{
		Patterns: []*wrapper.RowPattern{
			{Name: "num", Cells: []wrapper.PatternCell{
				{Headline: "A", Kind: wrapper.KindDomain, Domain: numbers, SpecializationOf: -1},
				{Headline: "V", Kind: wrapper.KindInteger, SpecializationOf: -1}}},
			{Name: "col", Cells: []wrapper.PatternCell{
				{Headline: "A", Kind: wrapper.KindDomain, Domain: colors, SpecializationOf: -1},
				{Headline: "V", Kind: wrapper.KindInteger, SpecializationOf: -1}}},
		},
		MinScore: 0.4,
	}
	instances, _, err := w.Extract(`<table>
		<tr><td>grean</td><td>5</td></tr>
		<tr><td>thre</td><td>7</td></tr>
	</table>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 2 {
		t.Fatalf("instances = %d", len(instances))
	}
	if instances[0].Pattern.Name != "col" {
		t.Errorf("row 0 pattern = %s, want col", instances[0].Pattern.Name)
	}
	if v, _ := instances[0].Get("A"); v != "green" {
		t.Errorf("row 0 A = %q", v)
	}
	if instances[1].Pattern.Name != "num" {
		t.Errorf("row 1 pattern = %s, want num", instances[1].Pattern.Name)
	}
}

func TestSkippedRowsReported(t *testing.T) {
	w := budgetWrapper(t)
	html := `<table>
		<tr><td>completely</td><td>unrelated</td><td>header</td><td>words</td></tr>
		<tr><td>2003</td><td>Receipts</td><td>cash sales</td><td>100</td></tr>
	</table>`
	instances, skipped, err := w.Extract(html)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 1 || len(skipped) != 1 {
		t.Fatalf("instances=%d skipped=%d", len(instances), len(skipped))
	}
	if skipped[0].Row != 0 || !strings.Contains(skipped[0].Text, "unrelated") {
		t.Errorf("skipped = %+v", skipped[0])
	}
}

func TestArityMismatchRowsSkipped(t *testing.T) {
	w := budgetWrapper(t)
	instances, skipped, err := w.Extract(`<table><tr><td>just</td><td>two</td></tr></table>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 0 || len(skipped) != 1 {
		t.Errorf("instances=%d skipped=%d", len(instances), len(skipped))
	}
}

func TestTableFilter(t *testing.T) {
	w := budgetWrapper(t)
	w.TableFilter = func(i int) bool { return i == 1 }
	html := docgen.RunningExampleDocument().HTML()
	instances, _, err := w.Extract(html)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 10 {
		t.Fatalf("instances = %d, want 10 (second table only)", len(instances))
	}
	if y, _ := instances[0].Get("Year"); y != "2004" {
		t.Errorf("year = %q", y)
	}
}

func TestIntegerCellScoring(t *testing.T) {
	w := budgetWrapper(t)
	// "2 20" (OCR space) should still be accepted as integer 220.
	doc := docgen.RunningExampleDocument()
	// Row 3 of the document model holds only (subsection, value) cells; the
	// year and section come from spans.
	doc.Tables[0].Rows[3][1].Text = "2 20"
	instances, skipped, err := w.Extract(doc.HTML())
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped: %+v", skipped)
	}
	v, _ := instances[3].Get("Value")
	if v != "220" {
		t.Errorf("value = %q, want 220", v)
	}
}

func TestPatternValidation(t *testing.T) {
	bad := []*wrapper.RowPattern{
		{Name: "noheadline", Cells: []wrapper.PatternCell{{Kind: wrapper.KindInteger, SpecializationOf: -1}}},
		{Name: "nodomain", Cells: []wrapper.PatternCell{{Headline: "X", Kind: wrapper.KindDomain, SpecializationOf: -1}}},
		{Name: "forwardspec", Cells: []wrapper.PatternCell{{Headline: "X", Kind: wrapper.KindInteger, SpecializationOf: 0}}},
	}
	for _, p := range bad {
		w := &wrapper.Wrapper{Patterns: []*wrapper.RowPattern{p}}
		if _, _, err := w.Extract("<table></table>"); err == nil {
			t.Errorf("pattern %s should fail validation", p.Name)
		}
	}
	empty := &wrapper.Wrapper{}
	if _, _, err := empty.Extract("<table></table>"); err == nil {
		t.Error("wrapper without patterns must error")
	}
}

func TestRunningExampleViaScanTextConversion(t *testing.T) {
	// Extraction must work identically on the scan-text-converted document
	// (paper path: OCR -> converter -> HTML), where spans are repeated
	// values rather than rowspans.
	md, err := scenario.CashBudget()
	if err != nil {
		t.Fatal(err)
	}
	_ = md
	w := budgetWrapper(t)
	txt := docgen.RunningExampleDocument().ScanText()
	// Inline conversion to avoid an import cycle in tests: the convert
	// package has its own tests; here we go through its output shape.
	htmlDoc := scanToHTML(txt)
	instances, skipped, err := w.Extract(htmlDoc)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || len(instances) != 20 {
		t.Fatalf("instances=%d skipped=%d", len(instances), len(skipped))
	}
	for _, sub := range runningex.Subsections {
		found := false
		for _, in := range instances {
			if got, _ := in.Get("Subsection"); got == sub {
				found = true
			}
		}
		if !found {
			t.Errorf("subsection %q not extracted", sub)
		}
	}
}

// scanToHTML is a minimal local copy of the convert transformation to keep
// this package's tests self-contained.
func scanToHTML(txt string) string {
	var b strings.Builder
	b.WriteString("<table>")
	for _, line := range strings.Split(txt, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "==") || strings.HasPrefix(line, "--") {
			continue
		}
		b.WriteString("<tr>")
		for _, c := range strings.Split(line, "|") {
			b.WriteString("<td>" + strings.TrimSpace(c) + "</td>")
		}
		b.WriteString("</tr>")
	}
	b.WriteString("</table>")
	return b.String()
}

func TestInstanceCorrections(t *testing.T) {
	doc := docgen.RunningExampleDocument()
	doc.Tables[0].Rows[0][2].Text = "bgnning cesh"
	w := budgetWrapper(t)
	instances, _, err := w.Extract(doc.HTML())
	if err != nil {
		t.Fatal(err)
	}
	corr := instances[0].Corrections()
	if len(corr) != 1 {
		t.Fatalf("corrections = %+v, want 1", corr)
	}
	c := corr[0]
	if c.From != "bgnning cesh" || c.To != "beginning cash" || c.Headline != "Subsection" {
		t.Errorf("correction = %+v", c)
	}
	if c.Score >= 1 || c.Score <= 0.5 {
		t.Errorf("score = %v", c.Score)
	}
	// Clean rows report no corrections.
	if got := instances[1].Corrections(); len(got) != 0 {
		t.Errorf("clean row corrections = %+v", got)
	}
}

func TestRealCellKind(t *testing.T) {
	rates := lexicon.NewDomain("Kind", "discount", "markup")
	w := &wrapper.Wrapper{
		Patterns: []*wrapper.RowPattern{{
			Name: "rate",
			Cells: []wrapper.PatternCell{
				{Headline: "Kind", Kind: wrapper.KindDomain, Domain: rates, SpecializationOf: -1},
				{Headline: "Rate", Kind: wrapper.KindReal, SpecializationOf: -1},
			},
		}},
		MinScore: 0.4,
	}
	instances, skipped, err := w.Extract(`<table>
		<tr><td>discount</td><td>0.125</td></tr>
		<tr><td>markup</td><td>- 1.5</td></tr>
		<tr><td>discount</td><td>not a number</td></tr>
	</table>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 2 || len(skipped) != 1 {
		t.Fatalf("instances=%d skipped=%d", len(instances), len(skipped))
	}
	if v, _ := instances[0].Get("Rate"); v != "0.125" {
		t.Errorf("rate = %q", v)
	}
	if v, _ := instances[1].Get("Rate"); v != "-1.5" {
		t.Errorf("negative rate = %q", v)
	}
	if wrapper.KindReal.String() != "Real" || wrapper.KindDomain.String() != "domain" ||
		wrapper.KindInteger.String() != "Integer" || wrapper.KindString.String() != "String" {
		t.Error("CellKind names")
	}
}

// TestExtractRejectsGridBomb: 36 KB of HTML whose table pads 4000 empty
// rows to the width of one row of 4000 cells would expand to 16 million grid
// positions. Extract must refuse it before expanding, with little allocated.
func TestExtractRejectsGridBomb(t *testing.T) {
	doc := "<table><tr>" + strings.Repeat("<td>x", 4000) + strings.Repeat("<tr>", 4000) + "</table>"
	w := budgetWrapper(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := w.Extract(doc)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.HasPrefix(err.Error(), "wrapper: table 0: ") {
		t.Fatalf("Extract error = %v, want a table 0 grid error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("Extract allocated %d bytes on a %d-byte document, want < 1 MiB", alloc, len(doc))
	}
}

// TestExtractExpandsOneTableAtATime: a table of 262 cells of colspan 1000
// is 4.5 KB of HTML and expands to 262,000 grid positions, just inside
// htmlx's bound: 10 MiB of grid. In a document of sixteen of them, side by
// side or nested in one another, Extract must expand only the table
// TableFilter selects, and drop each grid before it expands the next: it
// may allocate about one grid, and little at all when no table is selected.
func TestExtractExpandsOneTableAtATime(t *testing.T) {
	const positions = 262000
	oneGrid := positions * uint64(unsafe.Sizeof(htmlx.GridCell{}))
	wide := "<table><tr>" + strings.Repeat(`<td colspan="1000">x`, positions/1000)
	for name, doc := range map[string]string{
		"side by side": strings.Repeat(wide+"</table>", 16),
		"nested":       strings.Repeat(wide, 16),
	} {
		for _, selected := range []int{-1, 7} {
			w := budgetWrapper(t)
			w.TableFilter = func(ti int) bool { return ti == selected }
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, skipped, err := w.Extract(doc)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s, TableFilter selecting table %d: %v", name, selected, err)
			}
			limit := 64 * uint64(len(doc))
			if selected >= 0 {
				// The grid, its texts and the skipped row's joined text.
				limit += 2 * oneGrid
				if len(skipped) != 1 || len(skipped[0].Text) != 4*positions-3 {
					t.Errorf("%s: skipped %d rows, want the selected table's one wide row", name, len(skipped))
				}
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
				t.Errorf("%s, TableFilter selecting table %d: Extract allocated %d bytes on a %d-byte document, want at most %d", name, selected, alloc, len(doc), limit)
			}
		}
	}
}
