// Package experiments implements the evaluation the paper's conclusion
// promises ("a more extensive experimental evaluation ... on larger data
// sets"): ten experiments E1-E10 indexed in DESIGN.md, each regenerating
// one table of EXPERIMENTS.md. The same functions back cmd/dartbench and
// the root-level testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dart/internal/core"
	"dart/internal/docgen"
	"dart/internal/milp"
	"dart/internal/relational"
)

// Table is one experiment's result: a titled grid of rows.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 2 * (len(widths) - 1)
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// corruptValues perturbs k distinct Value cells of a CashBudget database
// with OCR-style digit damage, returning the original values of the
// damaged items (the ground truth for precision/recall measurement).
func corruptValues(db *relational.Database, relName, attr string, k int, rng *rand.Rand) map[core.Item]float64 {
	r := db.Relation(relName)
	tuples := r.Tuples()
	truth := map[core.Item]float64{}
	if k > len(tuples) {
		k = len(tuples)
	}
	for _, pi := range rng.Perm(len(tuples))[:k] {
		tp := tuples[pi]
		old := tp.Get(attr).AsInt()
		nw := perturbInt(old, rng)
		if err := r.SetValue(tp.ID(), attr, relational.Int(nw)); err != nil {
			panic(err)
		}
		truth[core.Item{Relation: relName, TupleID: tp.ID(), Attr: attr}] = float64(old)
	}
	return truth
}

// perturbInt applies a digit-level misread that changes the value.
func perturbInt(v int64, rng *rand.Rand) int64 {
	s := []byte(fmt.Sprint(v))
	digits := make([]int, 0, len(s))
	for i := range s {
		if s[i] >= '0' && s[i] <= '9' {
			digits = append(digits, i)
		}
	}
	for {
		i := digits[rng.Intn(len(digits))]
		d := byte('0' + rng.Intn(10))
		if d == s[i] {
			continue
		}
		out := append([]byte(nil), s...)
		out[i] = d
		var nv int64
		fmt.Sscan(string(out), &nv)
		if nv != v {
			return nv
		}
	}
}

// repairAccuracy compares a repair against injected ground truth: exact
// means the repaired values at the damaged items equal the truth and no
// undamaged item was touched.
type repairAccuracy struct {
	exact          bool
	truePositives  int
	falsePositives int
	missed         int
	wrongValue     int
}

func scoreRepair(rep *core.Repair, truth map[core.Item]float64) repairAccuracy {
	acc := repairAccuracy{exact: true}
	seen := map[core.Item]bool{}
	for _, u := range rep.Updates {
		seen[u.Item] = true
		want, isErr := truth[u.Item]
		switch {
		case !isErr:
			acc.falsePositives++
			acc.exact = false
		case u.New.AsFloat() == want:
			acc.truePositives++
		default:
			acc.wrongValue++
			acc.exact = false
		}
	}
	for it := range truth {
		if !seen[it] {
			acc.missed++
			acc.exact = false
		}
	}
	return acc
}

// BudgetWithErrors builds a consistent budget database of the given number
// of years, then injects k value errors. Returns db and truth values.
func BudgetWithErrors(years, k int, rng *rand.Rand) (*relational.Database, map[core.Item]float64) {
	b := docgen.RandomBudget(rng, 2000, years)
	db := docgen.BudgetDatabase(b)
	truth := corruptValues(db, "CashBudget", "Value", k, rng)
	return db, truth
}

// E1RunningExample reproduces the paper's worked example end to end:
// Fig. 3's instance, the Fig. 4 MILP shape, and Example 11's optimum.
func E1RunningExample() (*Table, error) {
	t := &Table{ID: "E1", Title: "Running example fidelity (Fig. 3/4, Examples 10-11)",
		Header: []string{"check", "expected", "measured", "ok"}}
	db := runningAcquired()
	prob, err := core.Prepare(db, constraintsRE())
	if err != nil {
		return nil, err
	}
	sys := prob.System()
	add := func(name string, want, got any) {
		t.Add(name, want, got, fmt.Sprint(want) == fmt.Sprint(got))
	}
	add("involved values N", 20, sys.N())
	add("translated rows", 8, len(sys.Rows))
	logM, _ := sys.TheoreticalMLog10()
	t.Add("paper M = 20*(28*250)^57 (log10)", "~224", fmt.Sprintf("%.1f", logM), logM > 200 && logM < 260)

	solver := &core.MILPSolver{}
	res, err := solver.SolveProblem(context.Background(), prob, nil)
	if err != nil {
		return nil, err
	}
	add("MILP optimum (repair card)", 1, res.Card)
	if res.Card == 1 {
		u := res.Repair.Updates[0]
		add("repaired value (tcr 2003)", "220", u.New.String())
		add("displacement y4", -30, int(u.New.AsFloat()-u.Old.AsFloat()))
	}
	cs, err := (&core.CardinalitySearchSolver{}).SolveProblem(context.Background(), prob, nil)
	if err != nil {
		return nil, err
	}
	add("cardinality-search agrees", 1, cs.Card)
	return t, nil
}

// E2RepairQuality measures unsupervised repair quality against injected
// errors: how often the card-minimal repair is exactly the true correction.
func E2RepairQuality(docsPerPoint int, seed int64) (*Table, error) {
	t := &Table{ID: "E2", Title: "Unsupervised repair quality vs injected errors (3-year budgets)",
		Header: []string{"errors/doc", "docs", "avg card", "exact-fix rate", "value precision", "value recall"}}
	acs := constraintsRE()
	for _, errs := range []int{1, 2, 3, 4, 5, 6} {
		rng := rand.New(rand.NewSource(seed + int64(errs)))
		var cards, exact, tp, fp, missed, wrong int
		for d := 0; d < docsPerPoint; d++ {
			db, truth := BudgetWithErrors(3, errs, rng)
			res, err := core.FindRepair(context.Background(), &core.MILPSolver{}, db, acs, nil)
			if err != nil {
				return nil, err
			}
			if res.Status != milp.StatusOptimal {
				return nil, fmt.Errorf("E2: status %v", res.Status)
			}
			cards += res.Card
			acc := scoreRepair(res.Repair, truth)
			if acc.exact {
				exact++
			}
			tp += acc.truePositives
			fp += acc.falsePositives + acc.wrongValue
			missed += acc.missed
			wrong += acc.wrongValue
		}
		prec := ratio(tp, tp+fp)
		rec := ratio(tp, tp+missed+wrong)
		t.Add(errs, docsPerPoint, float64(cards)/float64(docsPerPoint),
			ratio(exact, docsPerPoint), prec, rec)
	}
	t.Notes = append(t.Notes,
		"exact-fix = repair identical to the injected corruption (no operator needed)",
		"precision/recall over (item,value) corrections; ambiguity grows with error count")
	return t, nil
}

// E3Scaling measures translate+solve time against database size, with and
// without component decomposition.
func E3Scaling(errs int, seed int64) (*Table, error) {
	t := &Table{ID: "E3", Title: fmt.Sprintf("Repair time vs database size (%d errors/doc)", errs),
		Header: []string{"years", "N values", "rows", "decomposed time", "monolithic time", "nodes(dec)", "simplex iters(dec)"}}
	acs := constraintsRE()
	for _, years := range []int{2, 5, 10, 20, 50, 100} {
		rng := rand.New(rand.NewSource(seed + int64(years)))
		db, _ := BudgetWithErrors(years, errs, rng)
		start := time.Now()
		prob, err := core.Prepare(db, acs)
		if err != nil {
			return nil, err
		}
		res, err := (&core.MILPSolver{}).SolveProblem(context.Background(), prob, nil)
		if err != nil {
			return nil, err
		}
		decTime := time.Since(start)
		sys := prob.System()
		mono := time.Duration(0)
		if years <= 20 { // the monolithic solve becomes impractical beyond this
			start = time.Now()
			if _, err := core.FindRepair(context.Background(), &core.MILPSolver{DisableDecomposition: true}, db, acs, nil); err != nil {
				return nil, err
			}
			mono = time.Since(start)
		}
		monoStr := "(skipped)"
		if mono > 0 {
			monoStr = mono.Round(time.Microsecond).String()
		}
		t.Add(years, sys.N(), len(sys.Rows), decTime, monoStr, res.Nodes, res.Iterations)
	}
	t.Notes = append(t.Notes, "monolithic = single MILP over all components (paper's literal reading); decomposition exploits the block structure")
	return t, nil
}

// E4OperatorLoop measures the paper's human-effort claim: validation
// iterations and examined values until the oracle accepts.
func E4OperatorLoop(docsPerPoint int, seed int64) (*Table, error) {
	t := &Table{ID: "E4", Title: "Operator effort with oracle validation (3-year budgets)",
		Header: []string{"errors/doc", "docs", "avg iterations", "avg examined", "avg rejected", "truth recovered"}}
	acs := constraintsRE()
	for _, errs := range []int{1, 2, 3, 4, 5, 6} {
		rng := rand.New(rand.NewSource(seed + 100*int64(errs)))
		var iters, examined, rejected, recovered int
		for d := 0; d < docsPerPoint; d++ {
			b := docgen.RandomBudget(rng, 2000, 3)
			truthDB := docgen.BudgetDatabase(b)
			db := docgen.BudgetDatabase(b)
			corruptValues(db, "CashBudget", "Value", errs, rng)
			out, err := runValidation(db, truthDB, acs)
			if err != nil {
				return nil, err
			}
			iters += out.Iterations
			examined += out.Examined
			rejected += out.Rejected
			if sameDB(out.Repaired, truthDB) {
				recovered++
			}
		}
		t.Add(errs, docsPerPoint,
			float64(iters)/float64(docsPerPoint),
			float64(examined)/float64(docsPerPoint),
			float64(rejected)/float64(docsPerPoint),
			ratio(recovered, docsPerPoint))
	}
	t.Notes = append(t.Notes,
		`the paper reports "the correct repair ... in a few iterations in most cases"`,
		"recovery < 1.0 at high error counts stems from error sets that cancel into a constraint-consistent state, which no constraint-based repairer can detect")
	return t, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sameDB(a, b *relational.Database) bool {
	ra, rb := a.Relation("CashBudget"), b.Relation("CashBudget")
	if ra == nil || rb == nil || ra.Len() != rb.Len() {
		return false
	}
	for i, tp := range ra.Tuples() {
		if tp.String() != rb.Tuples()[i].String() {
			return false
		}
	}
	return true
}
