package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"dart/internal/aggrcons"
	"dart/internal/milp"
	"dart/internal/relational"
)

// LinearRow is one ground steady aggregate constraint translated into a
// linear (in)equality over the z_i variables (inequality (5) of the paper):
// sum_j(Coeffs[j] * z_{Idx[j]}) Rel RHS, with all constant contributions
// folded into the right-hand side. Idx is strictly increasing and no
// coefficient is zero, so every consumer visits a row's terms, and sums
// them, in one fixed order.
type LinearRow struct {
	Name   string
	Idx    []int
	Coeffs []float64 // parallel to Idx
	Rel    aggrcons.Rel
	RHS    float64
	Ground *aggrcons.Ground
}

// System is S(AC): the complete linear system produced by translating every
// steady aggregate constraint of AC on a database instance D. Items lists
// the involved measure values (the paper's N values), V their current
// database values, Domains their attribute domains.
//
// A system built by BuildSystem finds an item through the database's
// measure slots and bySlot, which maps each slot to the item's index (-1
// when the item is not involved). A component from Split asks its parent
// and maps the answer through local, which holds every parent index's
// index in its component.
type System struct {
	Items   []Item
	V       []float64
	Domains []relational.Domain
	Rows    []LinearRow
	slots   measureSlots
	bySlot  []int
	parent  *System
	local   []int
}

// measureSlots numbers the measure values of a database in relation
// registration order, tuple order and scheme order. Tuple IDs are
// positions, so the slots of a relation are contiguous.
type measureSlots map[string]relationSlots

// relationSlots places one relation's measure values: measure attr of the
// tuple with ID id has slot base + id*len(offset) + offset[attr].
type relationSlots struct {
	base   int
	offset map[string]int
}

// slot returns the slot of measure attr of tuple id in relation rel, or
// -1 when rel has no such measure. The slot of an id past the relation's
// last tuple belongs to another item.
func (m measureSlots) slot(rel string, id int, attr string) int {
	r := m[rel]
	off, ok := r.offset[attr]
	if !ok || id < 0 {
		return -1
	}
	return r.base + id*len(r.offset) + off
}

// N returns the number of involved values (the paper's N).
func (s *System) N() int { return len(s.Items) }

// IndexOf returns the variable index of an item, or -1.
func (s *System) IndexOf(it Item) int {
	i := -1
	switch {
	case s.parent != nil:
		if pi := s.parent.IndexOf(it); pi >= 0 {
			i = s.local[pi]
		}
	case s.slots != nil:
		if sl := s.slots.slot(it.Relation, it.TupleID, it.Attr); sl >= 0 && sl < len(s.bySlot) {
			i = s.bySlot[sl]
		}
	}
	if i >= 0 && i < len(s.Items) && s.Items[i] == it {
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
		for _, i := range r.Idx {
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
//
// Each row accumulates in a dense scratch indexed by measure item, adding
// the contributions in the order the grounding lists them, and is emitted
// with its touched items sorted. All rows' terms and names share one
// backing array each.
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
	// that z_1..z_N match the paper's tuple-order numbering: all[sl] is the
	// item of slot sl.
	var all []Item
	var allTuples []*relational.Tuple // parallel to all
	slots := measureSlots{}
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
		slots[relName] = relationSlots{base: len(all), offset: off}
		all = slices.Grow(all, rel.Len()*len(measures))
		allTuples = slices.Grow(allTuples, rel.Len()*len(measures))
		for _, t := range rel.Tuples() {
			for _, attr := range measures {
				all = append(all, Item{Relation: relName, TupleID: t.ID(), Attr: attr})
				allTuples = append(allTuples, t)
			}
		}
	}

	// rawRow is one emitted row: its name at names[name0:name1] and its
	// terms at idxs/coeffs[start:end], both of which grow while rows are
	// emitted.
	type rawRow struct {
		name0, name1 int
		start, end   int
		rel          aggrcons.Rel
		rhs          float64
		ground       *aggrcons.Ground
	}
	// Every ground emits at most one row, and a row has about one term per
	// tuple of its calls.
	rows, nterms := 0, 0
	for ki, k := range acs {
		for gi := range g.Grounds(ki) {
			rows++
			for ci := range k.Calls {
				nterms += len(g.Tuples(ki, gi, ci))
			}
		}
	}
	var (
		raw     = make([]rawRow, 0, rows)
		names   []byte
		idxs    = make([]int, 0, nterms)
		coeffs  = make([]float64, 0, nterms)
		acc     = make([]float64, len(all))
		inRow   = make([]bool, len(all))
		touched []int
	)
	for ki, k := range acs {
		terms := make([][]formTerm, len(k.Calls))
		termErrs := make([]error, len(k.Calls))
		forms := make([]aggrcons.LinearForm, len(k.Calls))
		// Call ci's measure slots of tuple t start at
		// bases[ci] + t.ID()*strides[ci].
		bases, strides := make([]int, len(k.Calls)), make([]int, len(k.Calls))
		for ci, call := range k.Calls {
			r := slots[call.Func.Relation]
			forms[ci] = aggrcons.Linearize(call.Func.Expr)
			terms[ci], termErrs[ci] = formTerms(db, k, call.Func, forms[ci], r.offset)
			bases[ci], strides[ci] = r.base, len(r.offset)
		}
		for gi, gr := range g.Grounds(ki) {
			rhs := k.K
			for ci, call := range k.Calls {
				tuples := g.Tuples(ki, gi, ci)
				// Constant summand: e_const * |T_chi| (the paper's
				// P(chi) = e * |T_chi| case).
				rhs -= call.Coeff * forms[ci].Const * float64(len(tuples))
				if len(tuples) > 0 && termErrs[ci] != nil {
					return nil, termErrs[ci]
				}
				for _, t := range tuples {
					for _, ft := range terms[ci] {
						if ft.offset >= 0 {
							idx := bases[ci] + t.ID()*strides[ci] + ft.offset
							if !inRow[idx] {
								inRow[idx] = true
								touched = append(touched, idx)
							}
							acc[idx] += call.Coeff * ft.c
						} else {
							// Non-measure numerical attribute: its value is
							// fixed, so it contributes a constant.
							rhs -= call.Coeff * ft.c * t.At(ft.pos).AsFloat()
						}
					}
				}
			}
			slices.Sort(touched)
			start := len(idxs)
			for _, idx := range touched {
				if c := acc[idx]; c != 0 {
					idxs = append(idxs, idx)
					coeffs = append(coeffs, c)
				}
				acc[idx], inRow[idx] = 0, false
			}
			touched = touched[:0]
			if len(idxs) == start && variableFreeHolds(k.Rel, rhs) {
				// Variable-free row (e.g. a section with neither detail nor
				// aggregate items): drop it when trivially satisfied, keep
				// it otherwise so the system is correctly unsatisfiable.
				continue
			}
			name0 := len(names)
			names = append(names, k.Name...)
			names = append(names, '#')
			names = strconv.AppendInt(names, int64(gi), 10)
			raw = append(raw, rawRow{name0: name0, name1: len(names), start: start, end: len(idxs), rel: k.Rel, rhs: rhs, ground: gr})
		}
	}

	// Keep only the involved values, preserving global order. The
	// renumbering is monotone, so every row stays sorted.
	bySlot := make([]int, len(all))
	for i := range bySlot {
		bySlot[i] = -1
	}
	for _, idx := range idxs {
		bySlot[idx] = 0
	}
	n := 0
	for sl := range bySlot {
		if bySlot[sl] == 0 {
			bySlot[sl] = n
			n++
		}
	}
	sys := &System{
		Items:   make([]Item, 0, n),
		V:       make([]float64, 0, n),
		Domains: make([]relational.Domain, 0, n),
		slots:   slots,
		bySlot:  bySlot,
	}
	for sl, it := range all {
		if bySlot[sl] < 0 {
			continue
		}
		sys.Items = append(sys.Items, it)
		t := allTuples[sl]
		sys.V = append(sys.V, t.Get(it.Attr).AsFloat())
		dom, _ := t.Schema().DomainOf(it.Attr)
		sys.Domains = append(sys.Domains, dom)
	}
	for j, idx := range idxs {
		idxs[j] = bySlot[idx]
	}
	allNames := string(names)
	sys.Rows = make([]LinearRow, len(raw))
	for ri, r := range raw {
		sys.Rows[ri] = LinearRow{
			Name:   allNames[r.name0:r.name1],
			Idx:    idxs[r.start:r.end:r.end],
			Coeffs: coeffs[r.start:r.end:r.end],
			Rel:    r.rel,
			RHS:    r.rhs,
			Ground: r.ground,
		}
	}
	return sys, nil
}

// variableFreeHolds reports whether a row without variables, 0 rel rhs,
// holds within 1e-9.
func variableFreeHolds(rel aggrcons.Rel, rhs float64) bool {
	switch rel {
	case aggrcons.LE:
		return 0 <= rhs+1e-9
	case aggrcons.GE:
		return 0 >= rhs-1e-9
	default:
		return math.Abs(rhs) <= 1e-9
	}
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

// formTerms resolves the attribute terms of a call's linear form, in
// attribute-name order so that constant contributions sum in a fixed
// order. The error, for an unknown or non-numerical attribute, applies
// only to calls whose T_chi is not empty.
func formTerms(db *relational.Database, k *aggrcons.Constraint, f *aggrcons.AggFunc, lf aggrcons.LinearForm, measureOffset map[string]int) ([]formTerm, error) {
	schema := db.Relation(f.Relation).Schema()
	attrs := make([]string, 0, len(lf.Coeffs))
	for attr := range lf.Coeffs {
		attrs = append(attrs, attr)
	}
	slices.Sort(attrs)
	out := make([]formTerm, 0, len(attrs))
	for _, attr := range attrs {
		c := lf.Coeffs[attr]
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
//
// The components' items, values, domains, rows and row indexes are carved
// from one backing array each; a row's coefficients are the parent row's.
// Components number their items in parent order, so rows stay sorted.
func (s *System) Split() []*System {
	n := len(s.Items)
	parent := make([]int, n)
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
	terms := 0
	for _, row := range s.Rows {
		terms += len(row.Idx)
		for _, idx := range row.Idx[min(1, len(row.Idx)):] {
			parent[find(row.Idx[0])] = find(idx)
		}
	}
	// comp numbers the roots in order of first appearance; compOf, items
	// and local give every item its component and its index there.
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	compOf := make([]int, n)
	var items []int // items per component
	for i := range s.Items {
		r := find(i)
		if comp[r] < 0 {
			comp[r] = len(items)
			items = append(items, 0)
		}
		compOf[i] = comp[r]
		items[comp[r]]++
	}
	nc := len(items)
	rows := make([]int, nc+1) // rows per component; the last holds variable-free rows
	rowComp := func(row *LinearRow) int {
		if len(row.Idx) == 0 {
			return nc
		}
		return compOf[row.Idx[0]]
	}
	for ri := range s.Rows {
		rows[rowComp(&s.Rows[ri])]++
	}
	if rows[nc] == 0 {
		rows = rows[:nc]
	}

	out := make([]*System, len(rows))
	subs := make([]System, len(rows))
	itemsAll := make([]Item, n)
	vAll := make([]float64, n)
	domAll := make([]relational.Domain, n)
	rowsAll := make([]LinearRow, len(s.Rows))
	local := make([]int, n)
	itemOff, rowOff := 0, 0
	for ci := range subs {
		sub := &subs[ci]
		sub.parent, sub.local = s, local
		if ci < nc {
			k := items[ci]
			sub.Items = itemsAll[itemOff : itemOff : itemOff+k]
			sub.V = vAll[itemOff : itemOff : itemOff+k]
			sub.Domains = domAll[itemOff : itemOff : itemOff+k]
			itemOff += k
		}
		sub.Rows = rowsAll[rowOff : rowOff : rowOff+rows[ci]]
		rowOff += rows[ci]
		out[ci] = sub
	}
	for i, it := range s.Items {
		sub := &subs[compOf[i]]
		local[i] = len(sub.Items)
		sub.Items = append(sub.Items, it)
		sub.V = append(sub.V, s.V[i])
		sub.Domains = append(sub.Domains, s.Domains[i])
	}
	idxAll := make([]int, 0, terms)
	for ri := range s.Rows {
		row := &s.Rows[ri]
		sub := &subs[rowComp(row)]
		start := len(idxAll)
		for _, idx := range row.Idx {
			idxAll = append(idxAll, local[idx])
		}
		nr := *row
		nr.Idx = idxAll[start:len(idxAll):len(idxAll)]
		sub.Rows = append(sub.Rows, nr)
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
			terms := make([]milp.Term, len(row.Idx))
			for j, idx := range row.Idx {
				terms[j] = milp.Term{Var: c.Z[idx], Coeff: row.Coeffs[j]}
			}
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
			terms := make([]milp.Term, len(row.Idx))
			rhs := row.RHS
			for j, idx := range row.Idx {
				terms[j] = milp.Term{Var: c.Y[idx], Coeff: row.Coeffs[j]}
				rhs -= row.Coeffs[j] * sys.V[idx]
			}
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
			for _, idx := range sys.Rows[ri].Idx {
				if !pinned[idx] {
					terms = append(terms, milp.Term{Var: c.Delta[idx], Coeff: 1})
				}
			}
			if len(terms) == 0 {
				continue // unfixable under the pinned values; leave it to the solver
			}
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
