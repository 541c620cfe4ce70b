package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"dart/internal/aggrcons"
	"dart/internal/milp"
	"dart/internal/relational"
)

// LinearRow is one ground steady aggregate constraint translated into a
// linear (in)equality over the z_i variables (inequality (5) of the paper):
// sum(Coeffs_i * z_i) Rel RHS, with all constant contributions folded into
// the right-hand side.
type LinearRow struct {
	Name   string
	Coeffs map[int]float64
	Rel    aggrcons.Rel
	RHS    float64
	Ground *aggrcons.Ground
}

// System is S(AC): the complete linear system produced by translating every
// steady aggregate constraint of AC on a database instance D. Items lists
// the involved measure values (the paper's N values), V their current
// database values, Domains their attribute domains.
type System struct {
	Items   []Item
	V       []float64
	Domains []relational.Domain
	Rows    []LinearRow
	index   map[Item]int
}

// N returns the number of involved values (the paper's N).
func (s *System) N() int { return len(s.Items) }

// IndexOf returns the variable index of an item, or -1.
func (s *System) IndexOf(it Item) int {
	if i, ok := s.index[it]; ok {
		return i
	}
	return -1
}

// Occurrences returns, for each item, the number of rows whose translation
// mentions it. The validation interface orders proposed updates by this
// count (Section 6.3's display-ordering heuristic).
func (s *System) Occurrences() []int {
	occ := make([]int, len(s.Items))
	for _, r := range s.Rows {
		for i := range r.Coeffs {
			occ[i]++
		}
	}
	return occ
}

// BuildSystem grounds every constraint and translates it into linear rows.
// Every constraint must be steady (Definition 6); the error for a
// non-steady constraint names the offending measure attributes, since for
// those the tuple sets T_chi cannot be determined without reading measure
// values and the translation of Section 5 is unsound.
func BuildSystem(db *relational.Database, acs []*aggrcons.Constraint) (*System, error) {
	g, err := aggrcons.NewGrounding(db, acs)
	if err != nil {
		return nil, err
	}
	return buildSystem(g)
}

// buildSystem translates a grounding into S(AC), reading each call's
// T_chi from the grounding. Rows are named k#gi after the constraint and
// the ground's index among all the constraint's grounds, including those
// whose rows are dropped.
func buildSystem(g *aggrcons.Grounding) (*System, error) {
	db, acs := g.Database(), g.Constraints()
	for _, k := range acs {
		if !k.IsSteady(db) {
			return nil, fmt.Errorf("core: constraint %s is not steady (measure attributes %v occur in A(k) or J(k))",
				k.Name, k.SteadyViolations(db))
		}
	}

	// Enumerate all measure values in deterministic order (relation
	// registration order, tuple insertion order, scheme attribute order) so
	// that z_1..z_N match the paper's tuple-order numbering. A measure item
	// is all[base[t]+offset[relation][attr]].
	var all []Item
	var allTuples []*relational.Tuple // parallel to all
	base := map[*relational.Tuple]int{}
	offset := map[string]map[string]int{}
	for _, relName := range db.RelationNames() {
		rel := db.Relation(relName)
		measures := db.MeasuresOf(relName)
		if len(measures) == 0 {
			continue
		}
		off := make(map[string]int, len(measures))
		for i, attr := range measures {
			off[attr] = i
		}
		offset[relName] = off
		for _, t := range rel.Tuples() {
			base[t] = len(all)
			for _, attr := range measures {
				all = append(all, Item{Relation: relName, TupleID: t.ID(), Attr: attr})
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
	for ki, k := range acs {
		terms := make([][]formTerm, len(k.Calls))
		termErrs := make([]error, len(k.Calls))
		forms := make([]aggrcons.LinearForm, len(k.Calls))
		for ci, call := range k.Calls {
			forms[ci] = aggrcons.Linearize(call.Func.Expr)
			terms[ci], termErrs[ci] = formTerms(db, k, call.Func, forms[ci], offset[call.Func.Relation])
		}
		for gi, gr := range g.Grounds(ki) {
			row := rawRow{
				name:   k.Name + "#" + strconv.Itoa(gi),
				coeffs: map[int]float64{},
				rel:    k.Rel,
				rhs:    k.K,
				ground: gr,
			}
			for ci, call := range k.Calls {
				tuples := g.Tuples(ki, gi, ci)
				// Constant summand: e_const * |T_chi| (the paper's
				// P(chi) = e * |T_chi| case).
				row.rhs -= call.Coeff * forms[ci].Const * float64(len(tuples))
				if len(tuples) > 0 && termErrs[ci] != nil {
					return nil, termErrs[ci]
				}
				for _, t := range tuples {
					for _, ft := range terms[ci] {
						if ft.offset >= 0 {
							row.coeffs[base[t]+ft.offset] += call.Coeff * ft.c
						} else {
							// Non-measure numerical attribute: its value is
							// fixed, so it contributes a constant.
							row.rhs -= call.Coeff * ft.c * t.At(ft.pos).AsFloat()
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
	used := make([]bool, len(all))
	for _, r := range raw {
		for idx := range r.coeffs {
			used[idx] = true
		}
	}
	remap := make([]int, len(all))
	sys := &System{}
	for oldIdx, it := range all {
		if !used[oldIdx] {
			continue
		}
		remap[oldIdx] = len(sys.Items)
		sys.Items = append(sys.Items, it)
		t := allTuples[oldIdx]
		sys.V = append(sys.V, t.Get(it.Attr).AsFloat())
		dom, _ := t.Schema().DomainOf(it.Attr)
		sys.Domains = append(sys.Domains, dom)
	}
	sys.index = make(map[Item]int, len(sys.Items))
	for i, it := range sys.Items {
		sys.index[it] = i
	}
	sys.Rows = make([]LinearRow, 0, len(raw))
	for _, r := range raw {
		row := LinearRow{Name: r.name, Coeffs: make(map[int]float64, len(r.coeffs)), Rel: r.rel, RHS: r.rhs, Ground: r.ground}
		for oldIdx, c := range r.coeffs {
			row.Coeffs[remap[oldIdx]] = c
		}
		sys.Rows = append(sys.Rows, row)
	}
	return sys, nil
}

// formTerm is one attribute term c*A of a call's linearized sum
// expression, resolved against the call's relation: A sits at position
// pos of the scheme and, when it is a measure, at offset among the
// relation's measures (-1 otherwise).
type formTerm struct {
	c      float64
	pos    int
	offset int
}

// formTerms resolves the attribute terms of a call's linear form. The
// error, for an unknown or non-numerical attribute, applies only to calls
// whose T_chi is not empty.
func formTerms(db *relational.Database, k *aggrcons.Constraint, f *aggrcons.AggFunc, lf aggrcons.LinearForm, measureOffset map[string]int) ([]formTerm, error) {
	schema := db.Relation(f.Relation).Schema()
	out := make([]formTerm, 0, len(lf.Coeffs))
	for attr, c := range lf.Coeffs {
		dom, err := schema.DomainOf(attr)
		if err != nil {
			return nil, fmt.Errorf("core: constraint %s: %w", k.Name, err)
		}
		if !dom.Numerical() {
			return nil, fmt.Errorf("core: constraint %s sums non-numerical attribute %s.%s",
				k.Name, f.Relation, attr)
		}
		off, isMeasure := measureOffset[attr]
		if !isMeasure {
			off = -1
		}
		out = append(out, formTerm{c: c, pos: schema.AttrIndex(attr), offset: off})
	}
	return out, nil
}

// Split partitions the system into its connected components: two items are
// connected when some row mentions both. Rows fall into the component of
// their items. Since components share no variables, a card-minimal repair
// of the whole system is the union of card-minimal repairs of the
// components — and components without violated rows need no solving at
// all. This makes repair time proportional to the number of errors rather
// than the database size; experiment E3 measures the effect against the
// monolithic solve. Variable-free rows (necessarily violated ones, since
// satisfied ones were dropped during translation) come back as a final
// component with no items.
func (s *System) Split() []*System {
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
		for idx := range row.Coeffs {
			if first < 0 {
				first = idx
			} else {
				parent[find(first)] = find(idx)
			}
		}
	}
	// Group item indices by root, preserving order: comp numbers the roots
	// in order of first appearance.
	comp := make([]int, len(s.Items))
	for i := range comp {
		comp[i] = -1
	}
	var groups [][]int
	for i := range s.Items {
		r := find(i)
		if comp[r] < 0 {
			comp[r] = len(groups)
			groups = append(groups, nil)
		}
		groups[comp[r]] = append(groups[comp[r]], i)
	}
	var emptyRows []LinearRow
	rowsByComp := make([][]LinearRow, len(groups))
	for _, row := range s.Rows {
		first := -1
		for idx := range row.Coeffs {
			first = idx
			break
		}
		if first < 0 {
			emptyRows = append(emptyRows, row)
			continue
		}
		ci := comp[find(first)]
		rowsByComp[ci] = append(rowsByComp[ci], row)
	}
	// Components partition the items, so one remap serves them all.
	remap := make([]int, len(s.Items))
	var out []*System
	for ci, idxs := range groups {
		sub := &System{
			Items:   make([]Item, len(idxs)),
			V:       make([]float64, len(idxs)),
			Domains: make([]relational.Domain, len(idxs)),
			index:   make(map[Item]int, len(idxs)),
		}
		for newIdx, oldIdx := range idxs {
			remap[oldIdx] = newIdx
			sub.Items[newIdx] = s.Items[oldIdx]
			sub.index[s.Items[oldIdx]] = newIdx
			sub.V[newIdx] = s.V[oldIdx]
			sub.Domains[newIdx] = s.Domains[oldIdx]
		}
		for _, row := range rowsByComp[ci] {
			nr := LinearRow{Name: row.Name, Coeffs: make(map[int]float64, len(row.Coeffs)), Rel: row.Rel, RHS: row.RHS, Ground: row.Ground}
			for oldIdx, c := range row.Coeffs {
				nr.Coeffs[remap[oldIdx]] = c
			}
			sub.Rows = append(sub.Rows, nr)
		}
		out = append(out, sub)
	}
	if len(emptyRows) > 0 {
		out = append(out, &System{Rows: emptyRows, index: map[Item]int{}})
	}
	return out
}

// PracticalM returns a data-derived big-M bound: the total magnitude of the
// current values and right-hand sides, scaled. For the aggregate-balance
// systems DART targets, any card-minimal repair can be realized with values
// within this range; the repair solver additionally verifies the bound was
// not binding and escalates it when necessary.
func (s *System) PracticalM() float64 {
	m := 1.0
	for _, v := range s.V {
		m += math.Abs(v)
	}
	for _, r := range s.Rows {
		m += math.Abs(r.RHS)
	}
	return 2 * m
}

// TheoreticalMLog10 computes the paper's bound M = n*(m*a)^(2m+1) (from
// Papadimitriou's integer-programming bound, applied to S'(AC) in augmented
// form with m = N+r equalities and n = 2N+r variables) in log10, because
// the bound itself overflows float64 for every non-trivial instance. It
// returns the log10 of M and whether M is representable as a float64.
func (s *System) TheoreticalMLog10() (log10M float64, representable bool) {
	n := float64(2*len(s.Items) + len(s.Rows))
	m := float64(len(s.Items) + len(s.Rows))
	if n == 0 || m == 0 {
		return 0, true
	}
	a := 1.0
	for _, r := range s.Rows {
		for _, c := range r.Coeffs {
			a = math.Max(a, math.Abs(c))
		}
		a = math.Max(a, math.Abs(r.RHS))
	}
	for _, v := range s.V {
		a = math.Max(a, math.Abs(v))
	}
	log10M = math.Log10(n) + (2*m+1)*math.Log10(m*a)
	return log10M, log10M <= 308
}

// Formulation selects how S*(AC) is laid out as a MILP model.
type Formulation int

const (
	// FormulationLiteral mirrors Eq. (8) of the paper exactly: variables
	// z_i, y_i, delta_i with explicit rows y_i = z_i - v_i.
	FormulationLiteral Formulation = iota
	// FormulationReduced substitutes z_i = v_i + y_i away, halving the
	// continuous variable count and dropping N equality rows. Optima
	// coincide with the literal formulation (see the equivalence tests).
	FormulationReduced
)

// String names the formulation.
func (f Formulation) String() string {
	if f == FormulationReduced {
		return "reduced"
	}
	return "literal"
}

// Compilation is a MILP model realizing S*(AC) together with the mapping
// back to database items.
type Compilation struct {
	System      *System
	Model       *milp.Model
	Formulation Formulation
	M           float64
	// Z, Y, Delta map item index to model variables; Z is nil for the
	// reduced formulation.
	Z, Y, Delta []milp.Var
}

// CompileOptions controls Compile.
type CompileOptions struct {
	Formulation Formulation
	// BigM overrides the big-M constant; 0 derives PracticalM from data.
	BigM float64
	// Forced pins items to operator-specified values (the validation
	// interface's accepted/corrected updates, Section 6.3).
	Forced map[Item]float64
	// DisableCoverCuts omits the violated-row cover cuts. The cuts — one
	// inequality sum(delta_i over a violated row's items) >= 1 per ground
	// constraint row violated by the acquired data — are valid for every
	// repair (a row whose items all keep their values stays violated) and
	// repair the notoriously weak LP bound of big-M indicator
	// formulations. Experiment E8 measures their effect.
	DisableCoverCuts bool
}

// Compile translates S(AC) into the optimization problem S*(AC) of Eq. (8).
func Compile(sys *System, opts CompileOptions) (*Compilation, error) {
	mBound := opts.BigM
	if mBound <= 0 {
		mBound = sys.PracticalM()
	}
	n := sys.N()
	model := milp.NewModel()
	c := &Compilation{
		System:      sys,
		Model:       model,
		Formulation: opts.Formulation,
		M:           mBound,
		Y:           make([]milp.Var, n),
		Delta:       make([]milp.Var, n),
	}
	vtype := func(i int) milp.VarType {
		if sys.Domains[i] == relational.DomainInt {
			return milp.Integer
		}
		return milp.Continuous
	}
	forcedY := func(i int) (float64, bool) {
		if opts.Forced == nil {
			return 0, false
		}
		v, ok := opts.Forced[sys.Items[i]]
		if !ok {
			return 0, false
		}
		return v - sys.V[i], true
	}

	// z and y carry no explicit bounds: the indicator rows already imply
	// |y_i| <= M*delta_i <= M, and explicit bounds of magnitude M would
	// place the simplex's initial resting point at +-M, amplifying
	// floating-point error for large M. Free variables rest at 0 instead.
	inf := math.Inf(1)
	if opts.Formulation == FormulationLiteral {
		c.Z = make([]milp.Var, n)
		for i := 0; i < n; i++ {
			lo, hi := -inf, inf
			if fy, ok := forcedY(i); ok {
				lo, hi = sys.V[i]+fy, sys.V[i]+fy
			}
			c.Z[i] = model.AddVar(fmt.Sprintf("z%d", i+1), lo, hi, vtype(i), 0)
		}
		for i := 0; i < n; i++ {
			c.Y[i] = model.AddVar(fmt.Sprintf("y%d", i+1), -inf, inf, vtype(i), 0)
		}
		for i := 0; i < n; i++ {
			c.Delta[i] = model.AddVar(fmt.Sprintf("d%d", i+1), 0, 1, milp.Binary, 1)
		}
		for _, row := range sys.Rows {
			terms := make([]milp.Term, 0, len(row.Coeffs))
			for idx, coef := range row.Coeffs {
				terms = append(terms, milp.Term{Var: c.Z[idx], Coeff: coef})
			}
			sortTerms(terms)
			if err := model.AddConstraint(row.Name, terms, milpRel(row.Rel), row.RHS); err != nil {
				return nil, err
			}
		}
		for i := 0; i < n; i++ {
			// y_i = z_i - v_i
			model.MustAddConstraint(fmt.Sprintf("def_y%d", i+1),
				[]milp.Term{{Var: c.Y[i], Coeff: 1}, {Var: c.Z[i], Coeff: -1}}, milp.EQ, -sys.V[i])
		}
	} else {
		for i := 0; i < n; i++ {
			lo, hi := -inf, inf
			if fy, ok := forcedY(i); ok {
				lo, hi = fy, fy
			}
			c.Y[i] = model.AddVar(fmt.Sprintf("y%d", i+1), lo, hi, vtype(i), 0)
		}
		for i := 0; i < n; i++ {
			c.Delta[i] = model.AddVar(fmt.Sprintf("d%d", i+1), 0, 1, milp.Binary, 1)
		}
		for _, row := range sys.Rows {
			terms := make([]milp.Term, 0, len(row.Coeffs))
			rhs := row.RHS
			for idx, coef := range row.Coeffs {
				terms = append(terms, milp.Term{Var: c.Y[idx], Coeff: coef})
				rhs -= coef * sys.V[idx]
			}
			sortTerms(terms)
			if err := model.AddConstraint(row.Name, terms, milpRel(row.Rel), rhs); err != nil {
				return nil, err
			}
		}
	}
	// Indicator rows: y_i - M*delta_i <= 0 and -y_i - M*delta_i <= 0.
	for i := 0; i < n; i++ {
		model.MustAddConstraint(fmt.Sprintf("ub_y%d", i+1),
			[]milp.Term{{Var: c.Y[i], Coeff: 1}, {Var: c.Delta[i], Coeff: -mBound}}, milp.LE, 0)
		model.MustAddConstraint(fmt.Sprintf("lb_y%d", i+1),
			[]milp.Term{{Var: c.Y[i], Coeff: -1}, {Var: c.Delta[i], Coeff: -mBound}}, milp.LE, 0)
	}
	if !opts.DisableCoverCuts {
		// One cover cut per ground row violated by the acquired values,
		// restricted to items the operator has not pinned.
		vals := append([]float64(nil), sys.V...)
		pinned := map[int]bool{}
		for it, v := range opts.Forced {
			if i := sys.IndexOf(it); i >= 0 {
				vals[i] = v
				pinned[i] = true
			}
		}
		for _, ri := range violatedRows(sys, vals, 1e-6) {
			var terms []milp.Term
			for idx := range sys.Rows[ri].Coeffs {
				if !pinned[idx] {
					terms = append(terms, milp.Term{Var: c.Delta[idx], Coeff: 1})
				}
			}
			if len(terms) == 0 {
				continue // unfixable under the pinned values; leave it to the solver
			}
			sortTerms(terms)
			model.MustAddConstraint(fmt.Sprintf("cover_%s", sys.Rows[ri].Name), terms, milp.GE, 1)
		}
	}
	return c, nil
}

func milpRel(r aggrcons.Rel) milp.Rel {
	switch r {
	case aggrcons.LE:
		return milp.LE
	case aggrcons.GE:
		return milp.GE
	default:
		return milp.EQ
	}
}

func sortTerms(ts []milp.Term) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Var < ts[j].Var })
}

// ExtractRepair reads a MILP solution vector back into a Repair: every item
// whose solved value differs from its database value becomes an atomic
// update. Integer-domain values are rounded exactly.
func (c *Compilation) ExtractRepair(db *relational.Database, x []float64) (*Repair, error) {
	sys := c.System
	rep := &Repair{}
	for i, it := range sys.Items {
		var solved float64
		if c.Formulation == FormulationLiteral {
			solved = x[c.Z[i]]
		} else {
			solved = sys.V[i] + x[c.Y[i]]
		}
		newVal, err := relational.FromFloat(solved, sys.Domains[i])
		if err != nil {
			return nil, err
		}
		scale := 1 + math.Abs(sys.V[i])
		if math.Abs(newVal.AsFloat()-sys.V[i]) <= 1e-6*scale {
			continue
		}
		rel := db.Relation(it.Relation)
		old := rel.TupleByID(it.TupleID).Get(it.Attr)
		rep.Updates = append(rep.Updates, Update{Item: it, Old: old, New: newVal})
	}
	rep.Sort()
	return rep, nil
}

// BoundBinding reports whether the solution pushed any displacement to the
// big-M bound, which means M may have truncated the search space and should
// be escalated.
func (c *Compilation) BoundBinding(x []float64) bool {
	for i := range c.Y {
		if math.Abs(x[c.Y[i]]) >= 0.999*c.M {
			return true
		}
	}
	return false
}

// FormatProblem renders the full optimization problem in the style of the
// paper's Fig. 4: the objective, the translated constraint system, the
// displacement definitions (literal formulation), and the indicator rows.
func (c *Compilation) FormatProblem() string {
	var b strings.Builder
	fmt.Fprintf(&b, "min sum(d1..d%d)   [%s formulation, M = %g]\n", len(c.Delta), c.Formulation, c.M)
	b.WriteString(c.Model.String())
	return b.String()
}
