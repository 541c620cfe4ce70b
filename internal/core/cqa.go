package core

import (
	"fmt"
	"math"
	"sort"

	"dart/internal/aggrcons"
	"dart/internal/milp"
	"dart/internal/relational"
)

// This file implements the consistent-query-answer layer of the companion
// paper the DART system builds on (Flesca, Furfaro, Parisi: "Consistent
// Query Answer on Numerical Databases under Aggregate Constraints", DBPL
// 2005 — reference [16] of the DART paper): enumeration of all
// card-minimal repairs, reliability analysis of individual values (a value
// is reliable iff it is identical in every card-minimal repair — the
// card-minimal consistent answer to the point query on that item), and
// set-minimality checking of arbitrary repairs.

// EnumerateOptions tunes EnumerateMinimalRepairs.
type EnumerateOptions struct {
	// Limit caps the number of repairs returned (default 64).
	Limit int
	// Formulation for the underlying MILP (default literal).
	Formulation Formulation
	// BigM as in CompileOptions.
	BigM float64
	// Forced pins items to operator-specified values, exactly as in
	// CompileOptions; enumeration then ranges over the card-minimal repairs
	// consistent with those decisions.
	Forced map[Item]float64
}

// EnumerateMinimalRepairs returns every card-minimal repair of db w.r.t.
// acs, up to opts.Limit. Enumeration works per connected component:
// within a component, after each optimum with delta-support S a no-good cut
//
//	sum_{i in S}(1 - delta_i) + sum_{i not in S} delta_i >= 1
//
// excludes that support, and the solve repeats while the optimum
// cardinality is preserved; the component repair lists are then combined
// (the cartesian product, since components are independent).
//
// Distinct supports may also admit multiple value assignments; like the
// repair solver, this returns one witness per support, which is the
// granularity the validation interface needs ("which items might have to
// change").
func EnumerateMinimalRepairs(db *relational.Database, acs []*aggrcons.Constraint, opts EnumerateOptions) ([]*Repair, error) {
	prob, err := Prepare(db, acs)
	if err != nil {
		return nil, err
	}
	return prob.EnumerateMinimalRepairs(opts)
}

// EnumerateMinimalRepairs is the prepared-problem form of the package
// function: enumeration runs on the already-grounded system and its cached
// component decomposition, so the validation loop's reliability analysis
// pays no per-iteration grounding cost.
func (p *Problem) EnumerateMinimalRepairs(opts EnumerateOptions) ([]*Repair, error) {
	if opts.Limit == 0 {
		opts.Limit = 64
	}
	db := p.db
	perComponent := [][]*Repair{}
	for _, sub := range p.Components() {
		vals := append([]float64(nil), sub.V...)
		for it, v := range opts.Forced {
			if i := sub.IndexOf(it); i >= 0 {
				vals[i] = v
			}
		}
		if len(violatedRows(sub, vals, 1e-6)) == 0 {
			// Consistent under the pinned values; forced diffs still count
			// as updates of every repair.
			rep := repairFromValues(db, sub, vals)
			if rep.Card() > 0 {
				perComponent = append(perComponent, []*Repair{rep})
			}
			continue
		}
		if len(sub.Items) == 0 {
			return nil, fmt.Errorf("core: no repair exists (unsatisfiable variable-free constraint)")
		}
		reps, err := enumerateComponent(db, sub, opts)
		if err != nil {
			return nil, err
		}
		if len(reps) == 0 {
			return nil, fmt.Errorf("core: no repair exists for a violated component")
		}
		perComponent = append(perComponent, reps)
	}
	// Combine: cartesian product across components, capped at Limit.
	out := []*Repair{{}}
	for _, reps := range perComponent {
		var next []*Repair
		for _, acc := range out {
			for _, r := range reps {
				merged := &Repair{Updates: append(append([]Update(nil), acc.Updates...), r.Updates...)}
				next = append(next, merged)
				if len(next) >= opts.Limit {
					break
				}
			}
			if len(next) >= opts.Limit {
				break
			}
		}
		out = next
	}
	for _, r := range out {
		r.Sort()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out, nil
}

// enumerateComponent enumerates minimal-repair supports of one violated
// component.
func enumerateComponent(db *relational.Database, sub *System, opts EnumerateOptions) ([]*Repair, error) {
	var cuts [][]int // excluded supports (item indexes with delta=1)
	var out []*Repair
	optimum := -1
	for len(out) < opts.Limit {
		comp, err := Compile(sub, CompileOptions{Formulation: opts.Formulation, BigM: opts.BigM, Forced: opts.Forced})
		if err != nil {
			return nil, err
		}
		// Apply the accumulated no-good cuts.
		for ci, support := range cuts {
			inSupport := map[int]bool{}
			for _, i := range support {
				inSupport[i] = true
			}
			terms := make([]milp.Term, 0, sub.N())
			rhs := 1.0
			for i := 0; i < sub.N(); i++ {
				if inSupport[i] {
					// (1 - delta_i) contributes -delta_i and +1 to the LHS.
					terms = append(terms, milp.Term{Var: comp.Delta[i], Coeff: -1})
					rhs -= 1
				} else {
					terms = append(terms, milp.Term{Var: comp.Delta[i], Coeff: 1})
				}
			}
			if err := comp.Model.AddConstraint(fmt.Sprintf("nogood_%d", ci), terms, milp.GE, rhs); err != nil {
				return nil, err
			}
		}
		// Only supports of the first solve's cardinality are kept, so every
		// later solve takes it as a cutoff: subtrees that can only hold
		// larger supports are pruned, and none that can hold one is.
		var opt milp.MILPOptions
		if optimum >= 0 {
			cutoff := float64(optimum)
			opt.CutoffObjective = &cutoff
		}
		sol, err := milp.Solve(comp.Model, opt)
		if err != nil {
			return nil, err
		}
		if sol.Status != milp.StatusOptimal {
			break // no further support of the optimal cardinality
		}
		card := int(math.Round(sol.Objective))
		if optimum < 0 {
			optimum = card
		}
		if card > optimum {
			break // only card-minimal repairs wanted
		}
		rep, err := comp.ExtractRepair(db, sol.X)
		if err != nil {
			return nil, err
		}
		// The support as indicated by delta (not by value diff: a delta can
		// be 1 with zero displacement in degenerate optima; use actual
		// changes for the repair but the delta support for the cut).
		var support []int
		for i := range comp.Delta {
			if sol.X[comp.Delta[i]] > 0.5 {
				support = append(support, i)
			}
		}
		cuts = append(cuts, support)
		if rep.Card() == optimum { // skip degenerate supports with no-op deltas
			out = append(out, rep)
		}
	}
	return out, nil
}

// Reliability classifies one database item across all card-minimal repairs.
type Reliability struct {
	Item Item
	// Current is the acquired value.
	Current float64
	// Values lists the distinct repaired values the item takes across the
	// enumerated card-minimal repairs (sorted).
	Values []float64
	// Reliable reports whether the item has the same value in every
	// card-minimal repair — the consistent answer to the point query.
	Reliable bool
}

// ReliableValues computes, for every involved item, whether its value is
// identical across all card-minimal repairs (up to opts.Limit enumerated
// repairs). Items untouched by every repair are reliable at their current
// value.
func ReliableValues(db *relational.Database, acs []*aggrcons.Constraint, opts EnumerateOptions) ([]Reliability, error) {
	prob, err := Prepare(db, acs)
	if err != nil {
		return nil, err
	}
	return prob.ReliableValues(opts)
}

// ReliableValues is the prepared-problem form of the package function: it
// shares the grounded system with enumeration instead of grounding twice.
func (p *Problem) ReliableValues(opts EnumerateOptions) ([]Reliability, error) {
	sys := p.sys
	reps, err := p.EnumerateMinimalRepairs(opts)
	if err != nil {
		return nil, err
	}
	valueSets := make([]map[float64]bool, sys.N())
	for i := range valueSets {
		valueSets[i] = map[float64]bool{}
	}
	for _, rep := range reps {
		changed := map[Item]float64{}
		for _, u := range rep.Updates {
			changed[u.Item] = u.New.AsFloat()
		}
		for i, it := range sys.Items {
			if v, ok := changed[it]; ok {
				valueSets[i][v] = true
			} else {
				valueSets[i][sys.V[i]] = true
			}
		}
	}
	out := make([]Reliability, sys.N())
	for i, it := range sys.Items {
		r := Reliability{Item: it, Current: sys.V[i]}
		for v := range valueSets[i] {
			r.Values = append(r.Values, v)
		}
		sort.Float64s(r.Values)
		r.Reliable = len(r.Values) == 1
		out[i] = r
	}
	return out, nil
}

// IsSetMinimal decides whether rho is a set-minimal repair of db w.r.t.
// acs: a repair such that no repair exists whose update set is a proper
// subset of rho's. It suffices to check, for every single update u, whether
// the system remains satisfiable when only the items of rho minus u may
// change (if so, a repair with strictly smaller support exists).
func IsSetMinimal(db *relational.Database, acs []*aggrcons.Constraint, rho *Repair) (bool, error) {
	if err := rho.Validate(db); err != nil {
		return false, err
	}
	prob, err := Prepare(db, acs)
	if err != nil {
		return false, err
	}
	if _, err := prob.Repaired(rho); err != nil {
		return false, fmt.Errorf("core: IsSetMinimal on a non-repair: %w", err)
	}
	sys := prob.System()
	support := make([]int, 0, rho.Card())
	for _, u := range rho.Updates {
		i := sys.IndexOf(u.Item)
		if i < 0 {
			// The update touches a value outside every constraint: dropping
			// it keeps consistency, so rho is not set-minimal (unless it is
			// the only update and the system was already consistent).
			return false, nil
		}
		support = append(support, i)
	}
	solver := &CardinalitySearchSolver{}
	mBound := sys.PracticalM()
	for drop := range support {
		subset := make([]int, 0, len(support)-1)
		for j, idx := range support {
			if j != drop {
				subset = append(subset, idx)
			}
		}
		res := &Result{}
		ok, _, err := solver.feasible(sys, sys.V, subset, mBound, res)
		if err != nil {
			return false, err
		}
		if ok {
			return false, nil
		}
	}
	return true, nil
}
