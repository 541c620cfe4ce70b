package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"dart/internal/aggrcons"
	"dart/internal/milp"
	"dart/internal/relational"
)

// CardinalitySearchSolver is an exact alternative to the MILP formulation:
// it searches change-sets S of increasing cardinality k = 1, 2, ... and
// accepts the first S for which the system S(AC) becomes satisfiable with
// only the values in S allowed to move. Correctness rests on the
// observation that any repair must change at least one value in every
// ground constraint row violated by the original data, so the search
// enumerates exactly the subsets hitting all violated rows (plus arbitrary
// padding items for cascade effects). The search is exponential in the
// answer cardinality k but typically very fast in the acquisition-error
// regime the paper targets (k <= 6), making it both a cross-check for MILP
// optima and a baseline for experiment E6.
type CardinalitySearchSolver struct{}

// cardSearchMaxK bounds the search depth of CardinalitySearchSolver.
const cardSearchMaxK = 6

// Name implements Solver.
func (s *CardinalitySearchSolver) Name() string { return "card-search" }

// SolveProblem implements Solver: the search runs directly on the prepared
// system, so re-solves under new pins pay no grounding cost.
func (s *CardinalitySearchSolver) SolveProblem(ctx context.Context, prob *Problem, forced map[Item]float64) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sys, db := prob.System(), prob.Database()
	mBound := sys.PracticalM()
	res := &Result{M: mBound}

	// Forced items are handled by substituting the forced value and
	// treating the item as unchangeable; if the forced value differs from
	// the original it already counts as one update supplied by the operator
	// (the validation interface accounts for those separately).
	vals := append([]float64(nil), sys.V...)
	frozen := make([]bool, sys.N())
	for it, v := range forced {
		if i := sys.IndexOf(it); i >= 0 {
			vals[i] = v
			frozen[i] = true
		}
	}

	violated := violatedRows(sys, vals, 1e-6)
	if len(violated) == 0 {
		res.Status = milp.StatusOptimal
		res.Repair = repairFromValues(db, sys, vals)
		res.Card = res.Repair.Card()
		return res, nil
	}

	// Restrict candidates to the connected components containing violated
	// rows: a repair never needs to touch values outside them.
	candidates := componentItems(sys, violated, frozen)

	for k := 1; k <= cardSearchMaxK && k <= len(candidates); k++ {
		found, solvedVals, err := s.searchK(sys, vals, frozen, violated, candidates, k, mBound, res)
		if err != nil {
			return nil, err
		}
		if found {
			res.Status = milp.StatusOptimal
			res.Repair = repairFromValues(db, sys, solvedVals)
			res.Card = res.Repair.Card()
			if err := prob.VerifyRepair(res.Repair, 1e-6); err != nil {
				return nil, fmt.Errorf("core: cardinality-search solution failed verification: %w", err)
			}
			return res, nil
		}
	}
	res.Status = milp.StatusIterLimit
	return res, nil
}

// violatedRows evaluates every row of the system at the given values and
// returns the indexes of rows that do not hold within the relative
// tolerance eps*(1+|RHS|).
func violatedRows(sys *System, vals []float64, eps float64) []int {
	var out []int
	for ri := range sys.Rows {
		row := &sys.Rows[ri]
		if !row.holds(vals, eps*(1+math.Abs(row.RHS))) {
			out = append(out, ri)
		}
	}
	return out
}

// holds reports whether the row is satisfied at vals within the absolute
// tolerance tol.
func (row *LinearRow) holds(vals []float64, tol float64) bool {
	lhs := 0.0
	for j, idx := range row.Idx {
		lhs += row.Coeffs[j] * vals[idx]
	}
	switch row.Rel {
	case aggrcons.LE:
		return lhs <= row.RHS+tol
	case aggrcons.GE:
		return lhs >= row.RHS-tol
	default:
		return math.Abs(lhs-row.RHS) <= tol
	}
}

// componentItems returns the unfrozen items of every row-item connected
// component that contains a violated row, ordered by how many violated rows
// each item appears in (descending) so the hitting-set search tries likely
// culprits first.
func componentItems(sys *System, violated []int, frozen []bool) []int {
	// Union-find over items; rows connect their items.
	parent := make([]int, sys.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		//dartvet:allow ctxloop -- union-find path halving strictly shortens the chain
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, row := range sys.Rows {
		for _, idx := range row.Idx[min(1, len(row.Idx)):] {
			union(row.Idx[0], idx)
		}
	}
	comps := map[int]bool{}
	for _, ri := range violated {
		for _, idx := range sys.Rows[ri].Idx {
			comps[find(idx)] = true
		}
	}
	freq := make(map[int]int)
	for _, ri := range violated {
		for _, idx := range sys.Rows[ri].Idx {
			freq[idx]++
		}
	}
	var out []int
	for i := 0; i < sys.N(); i++ {
		if !frozen[i] && comps[find(i)] {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if freq[out[a]] != freq[out[b]] {
			return freq[out[a]] > freq[out[b]]
		}
		return out[a] < out[b]
	})
	return out
}

// searchK enumerates change-sets of size exactly k that hit every violated
// row and feasibility-checks each. It returns the repaired value vector of
// the first feasible set.
func (s *CardinalitySearchSolver) searchK(sys *System, vals []float64, frozen []bool, violated, candidates []int, k int, mBound float64, res *Result) (bool, []float64, error) {
	inSet := make([]bool, sys.N())
	var set []int
	tried := map[string]bool{}

	candPos := make(map[int]int, len(candidates))
	for p, idx := range candidates {
		candPos[idx] = p
	}

	key := func() string {
		sorted := append([]int(nil), set...)
		sort.Ints(sorted)
		out := ""
		for _, v := range sorted {
			out += strconv.Itoa(v) + ","
		}
		return out
	}

	var solved []float64
	var rec func(minFreePos int) (bool, error)
	rec = func(minFreePos int) (bool, error) {
		// Find the first violated row not hit by the current set.
		unhit := -1
		for _, ri := range violated {
			hit := false
			for _, idx := range sys.Rows[ri].Idx {
				if inSet[idx] {
					hit = true
					break
				}
			}
			if !hit {
				unhit = ri
				break
			}
		}
		if unhit >= 0 {
			if len(set) == k {
				return false, nil
			}
			// Branch over the unhit row's candidate items.
			items := make([]int, 0, len(sys.Rows[unhit].Idx))
			for _, idx := range sys.Rows[unhit].Idx {
				if !frozen[idx] && !inSet[idx] {
					items = append(items, idx)
				}
			}
			sort.Slice(items, func(a, b int) bool { return candPos[items[a]] < candPos[items[b]] })
			for _, idx := range items {
				inSet[idx] = true
				set = append(set, idx)
				ok, err := rec(minFreePos)
				inSet[idx] = false
				set = set[:len(set)-1]
				if err != nil || ok {
					return ok, err
				}
			}
			return false, nil
		}
		if len(set) == k {
			kk := key()
			if tried[kk] {
				return false, nil
			}
			tried[kk] = true
			ok, x, err := s.feasible(sys, vals, set, mBound, res)
			if err != nil {
				return false, err
			}
			if ok {
				solved = x
				return true, nil
			}
			return false, nil
		}
		// All violated rows hit but slots remain: pad with further
		// candidates (ordered to avoid revisiting permutations).
		for p := minFreePos; p < len(candidates); p++ {
			idx := candidates[p]
			if inSet[idx] {
				continue
			}
			inSet[idx] = true
			set = append(set, idx)
			ok, err := rec(p + 1)
			inSet[idx] = false
			set = set[:len(set)-1]
			if err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	}
	ok, err := rec(0)
	return ok, solved, err
}

// feasible checks whether the system is satisfiable when only the items in
// set may move, and returns the full value vector on success.
func (s *CardinalitySearchSolver) feasible(sys *System, vals []float64, set []int, mBound float64, res *Result) (bool, []float64, error) {
	// The variables follow item order, so a row's terms, visited in item
	// order, are in variable order.
	model := milp.NewModel()
	yv := map[int]milp.Var{}
	sorted := slices.Clone(set)
	slices.Sort(sorted)
	for _, idx := range sorted {
		vt := milp.Continuous
		if sys.Domains[idx] == relational.DomainInt {
			vt = milp.Integer
		}
		yv[idx] = model.AddVar("y"+strconv.Itoa(idx), -mBound, mBound, vt, 0)
	}
	for _, row := range sys.Rows {
		var terms []milp.Term
		rhs := row.RHS
		involves := false
		for j, idx := range row.Idx {
			c := row.Coeffs[j]
			rhs -= c * vals[idx]
			if v, ok := yv[idx]; ok {
				terms = append(terms, milp.Term{Var: v, Coeff: c})
				involves = true
			}
		}
		if !involves {
			// No item of the row may move: the row holds iff it holds at
			// the current values.
			lhs := row.RHS - rhs // = sum of coeffs*vals
			scale := 1e-6 * (1 + math.Abs(row.RHS))
			sat := false
			switch row.Rel {
			case aggrcons.LE:
				sat = lhs <= row.RHS+scale
			case aggrcons.GE:
				sat = lhs >= row.RHS-scale
			default:
				sat = math.Abs(lhs-row.RHS) <= scale
			}
			if !sat {
				return false, nil, nil
			}
			continue
		}
		if err := model.AddConstraint(row.Name, terms, milpRel(row.Rel), rhs); err != nil {
			return false, nil, err
		}
	}
	sol, err := milp.Solve(model, milp.MILPOptions{})
	if err != nil {
		return false, nil, err
	}
	res.Nodes += sol.Nodes
	res.Iterations += sol.Iterations
	if sol.Status != milp.StatusOptimal {
		return false, nil, nil
	}
	out := append([]float64(nil), vals...)
	for _, idx := range set {
		out[idx] += sol.X[yv[idx]]
	}
	return true, out, nil
}

// repairFromValues diffs a solved value vector against the database.
// Operator-forced items whose forced value differs from the acquired one
// appear as updates, matching the MILP solver's extraction behaviour.
func repairFromValues(db *relational.Database, sys *System, vals []float64) *Repair {
	rep := &Repair{}
	for i, it := range sys.Items {
		newVal, err := relational.FromFloat(vals[i], sys.Domains[i])
		if err != nil {
			continue
		}
		if math.Abs(newVal.AsFloat()-sys.V[i]) <= 1e-6*(1+math.Abs(sys.V[i])) {
			continue
		}
		old := db.Relation(it.Relation).TupleByID(it.TupleID).Get(it.Attr)
		rep.Updates = append(rep.Updates, Update{Item: it, Old: old, New: newVal})
	}
	rep.Sort()
	return rep
}
