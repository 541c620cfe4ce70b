package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"dart/internal/aggrcons"
	"dart/internal/relational"
)

// This file keeps BuildSystem and System.Split as they were before the
// translation read T_chi from a Grounding and rows left maps: BuildSystem
// validating and checking steadiness, then grounding each constraint with
// RefGroundAll and scanning each call's relation, accumulating each row in
// a map, with an Item-keyed map for the measure index and a map for the
// renumbering; Split grouping and renumbering through maps. Only the
// finished rows take the slice layout, their terms sorted by item. The
// equivalence tests compare the package against them; the reference
// systems have no item index.

// RefBuildSystem is the reference BuildSystem.
func RefBuildSystem(db *relational.Database, acs []*aggrcons.Constraint) (*System, error) {
	for _, k := range acs {
		if err := k.Validate(db); err != nil {
			return nil, err
		}
		if !k.IsSteady(db) {
			return nil, fmt.Errorf("core: constraint %s is not steady (measure attributes %v occur in A(k) or J(k))",
				k.Name, k.SteadyViolations(db))
		}
	}

	// Enumerate all measure values in deterministic order (relation
	// registration order, tuple insertion order, scheme attribute order) so
	// that z_1..z_N match the paper's tuple-order numbering.
	var all []Item
	var allTuples []*relational.Tuple // parallel to all
	allIdx := map[Item]int{}
	for _, relName := range db.RelationNames() {
		rel := db.Relation(relName)
		measures := db.MeasuresOf(relName)
		if len(measures) == 0 {
			continue
		}
		for _, t := range rel.Tuples() {
			for _, attr := range measures {
				it := Item{Relation: relName, TupleID: t.ID(), Attr: attr}
				allIdx[it] = len(all)
				all = append(all, it)
				allTuples = append(allTuples, t)
			}
		}
	}

	type rawRow struct {
		name   string
		coeffs map[int]float64 // index into all
		rel    aggrcons.Rel
		rhs    float64
		ground *aggrcons.Ground
	}
	var raw []rawRow
	for _, k := range acs {
		grounds := RefGroundAll(k, db)
		forms := make([]aggrcons.LinearForm, len(k.Calls))
		for ci, call := range k.Calls {
			forms[ci] = aggrcons.Linearize(call.Func.Expr)
		}
		for gi, g := range grounds {
			row := rawRow{
				name:   fmt.Sprintf("%s#%d", k.Name, gi),
				coeffs: map[int]float64{},
				rel:    k.Rel,
				rhs:    k.K,
				ground: g,
			}
			for ci, call := range k.Calls {
				lf := forms[ci]
				tuples, err := call.Func.Tuples(db, g.Args[ci])
				if err != nil {
					return nil, err
				}
				// Constant summand: e_const * |T_chi| (the paper's
				// P(chi) = e * |T_chi| case).
				row.rhs -= call.Coeff * lf.Const * float64(len(tuples))
				for _, t := range tuples {
					for _, attr := range sortedKeys(lf.Coeffs) {
						c := lf.Coeffs[attr]
						dom, err := t.Schema().DomainOf(attr)
						if err != nil {
							return nil, fmt.Errorf("core: constraint %s: %w", k.Name, err)
						}
						if !dom.Numerical() {
							return nil, fmt.Errorf("core: constraint %s sums non-numerical attribute %s.%s",
								k.Name, call.Func.Relation, attr)
						}
						it := Item{Relation: call.Func.Relation, TupleID: t.ID(), Attr: attr}
						if idx, isMeasure := allIdx[it]; isMeasure && db.IsMeasure(it.Relation, it.Attr) {
							row.coeffs[idx] += call.Coeff * c
						} else {
							// Non-measure numerical attribute: its value is
							// fixed, so it contributes a constant.
							row.rhs -= call.Coeff * c * t.Get(attr).AsFloat()
						}
					}
				}
			}
			for idx, c := range row.coeffs {
				if c == 0 {
					delete(row.coeffs, idx)
				}
			}
			if len(row.coeffs) == 0 {
				// Variable-free row (e.g. a section with neither detail nor
				// aggregate items): drop it when trivially satisfied, keep
				// it otherwise so the system is correctly unsatisfiable.
				sat := false
				switch row.rel {
				case aggrcons.LE:
					sat = 0 <= row.rhs+1e-9
				case aggrcons.GE:
					sat = 0 >= row.rhs-1e-9
				default:
					sat = math.Abs(row.rhs) <= 1e-9
				}
				if sat {
					continue
				}
			}
			raw = append(raw, row)
		}
	}

	// Keep only the involved values, preserving global order.
	used := map[int]bool{}
	for _, r := range raw {
		for idx := range r.coeffs {
			used[idx] = true
		}
	}
	keep := make([]int, 0, len(used))
	for idx := range used {
		keep = append(keep, idx)
	}
	sort.Ints(keep)
	remap := map[int]int{}
	sys := &System{}
	for newIdx, oldIdx := range keep {
		remap[oldIdx] = newIdx
		it := all[oldIdx]
		sys.Items = append(sys.Items, it)
		t := allTuples[oldIdx]
		sys.V = append(sys.V, t.Get(it.Attr).AsFloat())
		dom, _ := t.Schema().DomainOf(it.Attr)
		sys.Domains = append(sys.Domains, dom)
	}
	for _, r := range raw {
		coeffs := map[int]float64{}
		for oldIdx, c := range r.coeffs {
			coeffs[remap[oldIdx]] = c
		}
		sys.Rows = append(sys.Rows, refRow(LinearRow{Name: r.name, Rel: r.rel, RHS: r.rhs, Ground: r.ground}, coeffs))
	}
	return sys, nil
}

// refRow returns row with the terms of coeffs, sorted by item.
func refRow(row LinearRow, coeffs map[int]float64) LinearRow {
	row.Idx, row.Coeffs = nil, nil
	for _, idx := range sortedKeys(coeffs) {
		row.Idx = append(row.Idx, idx)
		row.Coeffs = append(row.Coeffs, coeffs[idx])
	}
	return row
}

// sortedKeys returns the keys of m in increasing order.
func sortedKeys[K int | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// RefGroundAll is the reference GroundAll, written against the exported
// API: a map substitution, every ground's Key formatted before the
// duplicate check, and every ground allocated on its own.
func RefGroundAll(k *aggrcons.Constraint, db *relational.Database) []*aggrcons.Ground {
	var out []*aggrcons.Ground
	seen := map[string]bool{}
	binding := map[string]relational.Value{}
	emit := func() {
		g := &aggrcons.Ground{Source: k, Args: make([][]relational.Value, len(k.Calls))}
		for i, call := range k.Calls {
			for _, a := range call.Args {
				v, _ := a.IsConst()
				if name, ok := a.IsVar(); ok {
					v = binding[name]
				}
				g.Args[i] = append(g.Args[i], v)
			}
		}
		if key := g.Key(); !seen[key] {
			seen[key] = true
			out = append(out, g)
		}
	}
	var match func(atomIdx int)
	match = func(atomIdx int) {
		if atomIdx == len(k.Body) {
			emit()
			return
		}
		atom := k.Body[atomIdx]
		for _, t := range db.Relation(atom.Relation).Tuples() {
			var bound []string
			ok := true
			for i, a := range atom.Args {
				if c, isConst := a.IsConst(); isConst {
					ok = c.Equal(t.At(i))
				} else if name, isVar := a.IsVar(); isVar {
					if prev, has := binding[name]; has {
						ok = prev.Equal(t.At(i))
					} else {
						binding[name] = t.At(i)
						bound = append(bound, name)
					}
				}
				if !ok {
					break
				}
			}
			if ok {
				match(atomIdx + 1)
			}
			for _, name := range bound {
				delete(binding, name)
			}
		}
	}
	match(0)
	return out
}

// RefSplit is the reference System.Split.
func RefSplit(s *System) []*System {
	parent := make([]int, len(s.Items))
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
	for _, row := range s.Rows {
		first := -1
		for _, idx := range row.Idx {
			if first < 0 {
				first = idx
			} else {
				parent[find(first)] = find(idx)
			}
		}
	}
	// Group item indices by root, preserving order.
	groups := map[int][]int{}
	var roots []int
	for i := range s.Items {
		r := find(i)
		if _, seen := groups[r]; !seen {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], i)
	}
	var out []*System
	var emptyRows []LinearRow
	rowsByRoot := map[int][]LinearRow{}
	for _, row := range s.Rows {
		first := -1
		for _, idx := range row.Idx {
			first = idx
			break
		}
		if first < 0 {
			emptyRows = append(emptyRows, row)
			continue
		}
		r := find(first)
		rowsByRoot[r] = append(rowsByRoot[r], row)
	}
	for _, r := range roots {
		idxs := groups[r]
		sub := &System{}
		remap := map[int]int{}
		for newIdx, oldIdx := range idxs {
			remap[oldIdx] = newIdx
			sub.Items = append(sub.Items, s.Items[oldIdx])
			sub.V = append(sub.V, s.V[oldIdx])
			sub.Domains = append(sub.Domains, s.Domains[oldIdx])
		}
		for _, row := range rowsByRoot[r] {
			coeffs := map[int]float64{}
			for j, oldIdx := range row.Idx {
				coeffs[remap[oldIdx]] = row.Coeffs[j]
			}
			sub.Rows = append(sub.Rows, refRow(row, coeffs))
		}
		out = append(out, sub)
	}
	if len(emptyRows) > 0 {
		out = append(out, &System{Rows: emptyRows})
	}
	return out
}
