package experiments

import (
	"math/rand"

	"dart/internal/aggrcons"

	"dart/internal/core"
	"dart/internal/docgen"
	"dart/internal/relational"
	"dart/internal/scenario"
	"dart/internal/validate"
)

// E13ErrorDepth studies how the depth of an error in the balance-sheet
// constraint hierarchy affects diagnosability: leaf details participate in
// one constraint (ambiguous with their siblings), category subtotals in
// two, and the top-level totals in two including the accounting equation.
// More constraint participation means fewer card-minimal repairs and less
// operator effort — the quantitative version of the ordering heuristic's
// intuition in Section 6.3.
func E13ErrorDepth(docsPerPoint int, seed int64) (*Table, error) {
	t := &Table{ID: "E13", Title: "Error depth vs diagnosability (balance sheets, 1 error/doc)",
		Header: []string{"error depth", "docs", "avg violations", "avg minimal repairs", "avg operator decisions", "truth recovered"}}
	md, err := scenario.BalanceSheet()
	if err != nil {
		return nil, err
	}
	acs := md.Constraints()

	// Items per depth class.
	byKind := map[string][]string{}
	for _, item := range docgen.BalanceItems {
		k := docgen.BalanceKindOf[item]
		byKind[k] = append(byKind[k], item)
	}
	depths := []struct{ label, kind string }{
		{"leaf (det)", "det"},
		{"subtotal (sub)", "sub"},
		{"top-level (drv)", "drv"},
	}
	for _, d := range depths {
		rng := rand.New(rand.NewSource(seed + int64(len(d.kind))))
		var viols, repairs, decisions, recovered int
		for doc := 0; doc < docsPerPoint; doc++ {
			years := docgen.RandomBalanceSheet(rng, 2000, 1)
			truth := docgen.BalanceSheetDatabase(years)
			db := docgen.BalanceSheetDatabase(years)
			item := byKind[d.kind][rng.Intn(len(byKind[d.kind]))]
			r := db.Relation("BalanceSheet")
			for _, tp := range r.Tuples() {
				if tp.Get("Item") == relational.String(item) {
					nv := perturbInt(tp.Get("Amount").AsInt(), rng)
					if err := r.SetValue(tp.ID(), "Amount", relational.Int(nv)); err != nil {
						return nil, err
					}
				}
			}
			prob, err := core.Prepare(db, acs)
			if err != nil {
				return nil, err
			}
			viols += len(violatedSystemRows(prob.System()))
			reps, err := prob.EnumerateMinimalRepairs(core.EnumerateOptions{Limit: 64})
			if err != nil {
				return nil, err
			}
			repairs += len(reps)
			s := &validate.Session{
				DB: db, Constraints: acs,
				Problem:  prob,
				Solver:   &core.MILPSolver{},
				Operator: &validate.OracleOperator{Truth: truth},
			}
			out, err := s.Run()
			if err != nil {
				return nil, err
			}
			decisions += out.Examined
			if sameSheet(out.Repaired, truth) {
				recovered++
			}
		}
		t.Add(d.label, docsPerPoint,
			float64(viols)/float64(docsPerPoint),
			float64(repairs)/float64(docsPerPoint),
			float64(decisions)/float64(docsPerPoint),
			ratio(recovered, docsPerPoint))
	}
	t.Notes = append(t.Notes,
		"items participating in more ground constraints are pinned down faster — the basis of the paper's update-ordering heuristic")
	return t, nil
}

// violatedSystemRows evaluates a system at its own values.
func violatedSystemRows(sys *core.System) []int {
	var out []int
	for ri, row := range sys.Rows {
		lhs := 0.0
		for j, idx := range row.Idx {
			lhs += row.Coeffs[j] * sys.V[idx]
		}
		d := lhs - row.RHS
		ok := false
		switch row.Rel {
		case aggrcons.LE:
			ok = d <= 1e-6
		case aggrcons.GE:
			ok = d >= -1e-6
		default:
			ok = d <= 1e-6 && d >= -1e-6
		}
		if !ok {
			out = append(out, ri)
		}
	}
	return out
}

func sameSheet(a, b *relational.Database) bool {
	ra, rb := a.Relation("BalanceSheet"), b.Relation("BalanceSheet")
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
