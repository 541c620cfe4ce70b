package milp

import (
	"fmt"
	"math"
)

// Status reports the outcome of a solve.
type Status int

const (
	// StatusOptimal means an optimal (for MILP: proven optimal integral)
	// solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means the problem has no feasible solution.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded below.
	StatusUnbounded
	// StatusIterLimit means the iteration or node limit was exhausted.
	StatusIterLimit
)

// String returns a short name for the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// LPResult is the outcome of solving a linear relaxation.
type LPResult struct {
	Status    Status
	Objective float64
	// X holds one value per model variable (slacks excluded).
	X []float64
	// Iterations is the number of simplex pivots performed.
	Iterations int
}

// SimplexOptions tunes the simplex method. The zero value selects defaults.
type SimplexOptions struct {
	// MaxIters bounds pivot count; 0 means 200*(m+n)+10000.
	MaxIters int
	// FeasTol is the bound-violation tolerance (default 1e-7).
	FeasTol float64
	// OptTol is the reduced-cost optimality tolerance (default 1e-7).
	OptTol float64
	// PivotTol is the minimum acceptable pivot magnitude (default 1e-9).
	PivotTol float64
}

func (o SimplexOptions) withDefaults(m, n int) SimplexOptions {
	if o.MaxIters == 0 {
		o.MaxIters = 200*(m+n) + 10000
	}
	if o.FeasTol == 0 {
		o.FeasTol = 1e-7
	}
	if o.OptTol == 0 {
		o.OptTol = 1e-7
	}
	if o.PivotTol == 0 {
		o.PivotTol = 1e-9
	}
	return o
}

// column status in the simplex working arrays.
type colStatus int8

const (
	csBasic colStatus = iota
	csAtLower
	csAtUpper
	csFree // nonbasic free variable resting at value 0
)

// simplex is the working state of a bounded-variable primal simplex solve.
// Columns 0..nv-1 are the model's structural variables; columns nv..nv+m-1
// are row slacks (a·x + s = b, with slack bounds encoding the relation).
//
// The state is reusable: reset re-initializes it for a model/bounds pair
// from a prebuilt CSR matrix without allocating once the backing arrays
// have grown to size, which is what makes steady-state branch-and-bound
// node solves allocation-free. Instances are recycled via simplexPool.
type simplex struct {
	opt SimplexOptions

	m, n int // rows, total columns (structural + slacks)
	nv   int // structural columns

	buf   []float64   // flat m*n backing array of the tableau
	tab   [][]float64 // m x n dense tableau rows into buf, equals B^{-1} * A_full
	rhs   []float64   // B^{-1} b (unadjusted for nonbasic bound values)
	lb    []float64   // per-column lower bounds (incl. slacks)
	ub    []float64   // per-column upper bounds
	obj   []float64   // per-column objective (slacks: 0)
	basis []int       // basis[i] = column basic in row i
	inRow []int       // inRow[j] = row where column j is basic, or -1
	stat  []colStatus
	xB    []float64 // current values of basic variables per row
	d     []float64 // reduced costs (valid during phase 2)
	g     []float64 // phase-1 infeasibility gradient scratch

	iters int
	bland bool // anti-cycling rule active
	degen int  // consecutive degenerate pivots
}

// reset re-initializes the working state for model mdl with the prebuilt
// CSR form cs, with bounds optionally overridden (overrideLB/overrideUB may
// be nil to use the model's own). Backing arrays are reused when large
// enough, so repeated resets against same-shaped models allocate nothing.
func (s *simplex) reset(mdl *Model, cs *csrMatrix, opt SimplexOptions, overrideLB, overrideUB []float64) {
	m := cs.m
	nv := cs.nv
	n := nv + m
	s.opt = opt.withDefaults(m, n)
	s.m, s.n, s.nv = m, n, nv
	s.iters, s.degen, s.bland = 0, 0, false

	s.buf = growF(s.buf, m*n)
	for i := range s.buf {
		s.buf[i] = 0
	}
	s.tab = growRows(s.tab, m)
	s.rhs = growF(s.rhs, m)
	s.lb = growF(s.lb, n)
	s.ub = growF(s.ub, n)
	s.obj = growF(s.obj, n)
	s.basis = growI(s.basis, m)
	s.inRow = growI(s.inRow, n)
	s.stat = growS(s.stat, n)
	s.xB = growF(s.xB, m)
	s.d = growF(s.d, n)
	s.g = growF(s.g, n)

	for j := 0; j < nv; j++ {
		if overrideLB != nil {
			s.lb[j] = overrideLB[j]
		} else {
			s.lb[j] = mdl.lb[j]
		}
		if overrideUB != nil {
			s.ub[j] = overrideUB[j]
		} else {
			s.ub[j] = mdl.ub[j]
		}
		s.obj[j] = mdl.obj[j]
		s.inRow[j] = -1
	}
	// Scatter the equilibrated CSR rows into the dense tableau. The CSR
	// build already applied row equilibration (divide each row by its
	// largest coefficient magnitude), which big-M indicator rows need to
	// stay inside the solver's absolute tolerances.
	for i := 0; i < m; i++ {
		t := s.buf[i*n : (i+1)*n]
		s.tab[i] = t
		for k := cs.rowStart[i]; k < cs.rowStart[i+1]; k++ {
			t[cs.cols[k]] = cs.vals[k]
		}
		sc := nv + i // slack column
		t[sc] = 1
		s.rhs[i] = cs.rhs[i]
		s.obj[sc] = 0
		switch cs.rel[i] {
		case LE:
			s.lb[sc], s.ub[sc] = 0, math.Inf(1)
		case GE:
			s.lb[sc], s.ub[sc] = math.Inf(-1), 0
		case EQ:
			s.lb[sc], s.ub[sc] = 0, 0
		}
		s.inRow[sc] = -1
	}
	// Initial point: structural variables at a finite bound (prefer the one
	// with smaller magnitude; free variables rest at 0); slacks basic.
	for j := 0; j < nv; j++ {
		lbF, ubF := !math.IsInf(s.lb[j], -1), !math.IsInf(s.ub[j], 1)
		switch {
		case lbF && ubF:
			if math.Abs(s.lb[j]) <= math.Abs(s.ub[j]) {
				s.stat[j] = csAtLower
			} else {
				s.stat[j] = csAtUpper
			}
		case lbF:
			s.stat[j] = csAtLower
		case ubF:
			s.stat[j] = csAtUpper
		default:
			s.stat[j] = csFree
		}
	}
	for i := 0; i < m; i++ {
		sc := nv + i
		s.basis[i] = sc
		s.inRow[sc] = i
		s.stat[sc] = csBasic
	}
	// xB[i] = rhs_i - sum over nonbasic structural columns of coeff*value,
	// accumulated over the row's nonzeros only (zero coefficients contribute
	// nothing, so skipping them is exact).
	for i := 0; i < m; i++ {
		v := s.rhs[i]
		for k := cs.rowStart[i]; k < cs.rowStart[i+1]; k++ {
			if x := s.nbValue(cs.cols[k]); x != 0 {
				v -= cs.vals[k] * x
			}
		}
		s.xB[i] = v
	}
}

// nbValue returns the resting value of a nonbasic column.
func (s *simplex) nbValue(j int) float64 {
	switch s.stat[j] {
	case csAtLower:
		return s.lb[j]
	case csAtUpper:
		return s.ub[j]
	default:
		return 0
	}
}

// value returns the current value of any column.
func (s *simplex) value(j int) float64 {
	if s.stat[j] == csBasic {
		return s.xB[s.inRow[j]]
	}
	return s.nbValue(j)
}

// infeasibility returns the total bound violation of the basic variables.
func (s *simplex) infeasibility() float64 {
	tol := s.opt.FeasTol
	sum := 0.0
	for i := 0; i < s.m; i++ {
		k := s.basis[i]
		if v := s.lb[k] - s.xB[i]; v > tol {
			sum += v
		} else if v := s.xB[i] - s.ub[k]; v > tol {
			sum += v
		}
	}
	return sum
}

// phase1Costs computes the infeasibility gradient g_j for every nonbasic
// column: g_j = sum over below-lb rows of tab[i][j] minus sum over above-ub
// rows. Moving x_j in direction dir changes total infeasibility at rate
// dir*g_j.
func (s *simplex) phase1Costs(g []float64) (anyInfeasible bool) {
	tol := s.opt.FeasTol
	for j := range g {
		g[j] = 0
	}
	for i := 0; i < s.m; i++ {
		k := s.basis[i]
		var w float64
		if s.lb[k]-s.xB[i] > tol {
			w = 1
		} else if s.xB[i]-s.ub[k] > tol {
			w = -1
		} else {
			continue
		}
		anyInfeasible = true
		row := s.tab[i]
		for j := 0; j < s.n; j++ {
			// Skipping zero tableau entries is exact and, on the sparse
			// ground systems this solver sees, skips most of the row.
			if v := row[j]; v != 0 && s.stat[j] != csBasic {
				g[j] += w * v
			}
		}
	}
	return anyInfeasible
}

// computeReducedCosts fills s.d with d_j = c_j - c_B' * tab[:,j].
func (s *simplex) computeReducedCosts() {
	copy(s.d, s.obj)
	for i := 0; i < s.m; i++ {
		cb := s.obj[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := s.tab[i]
		for j := 0; j < s.n; j++ {
			if v := row[j]; v != 0 {
				s.d[j] -= cb * v
			}
		}
	}
	for i := 0; i < s.m; i++ {
		s.d[s.basis[i]] = 0
	}
}

// chooseEntering picks an entering column and direction given per-column
// costs c (phase-1 gradient or phase-2 reduced costs). It returns (-1, 0)
// at optimality. Under Bland's rule the lowest-index eligible column wins;
// otherwise the most negative directional cost wins.
func (s *simplex) chooseEntering(c []float64) (enter int, dir float64) {
	tol := s.opt.OptTol
	best := -tol
	enter, dir = -1, 0
	for j := 0; j < s.n; j++ {
		var dj float64
		var dj2 float64 // directional derivative if moving dir
		var dd float64
		switch s.stat[j] {
		case csAtLower:
			dj = c[j]
			if dj < -tol {
				dj2, dd = dj, 1
			} else {
				continue
			}
		case csAtUpper:
			dj = c[j]
			if dj > tol {
				dj2, dd = -dj, -1
			} else {
				continue
			}
		case csFree:
			dj = c[j]
			if dj < -tol {
				dj2, dd = dj, 1
			} else if dj > tol {
				dj2, dd = -dj, -1
			} else {
				continue
			}
		default:
			continue
		}
		if s.bland {
			return j, dd
		}
		//dartvet:allow floatcmp -- pricing pick; best is seeded with the pricing tolerance
		if dj2 < best {
			best, enter, dir = dj2, j, dd
		}
	}
	return enter, dir
}

// ratioResult describes the blocking event of a ratio test.
type ratioResult struct {
	t        float64 // step length
	row      int     // blocking row, or -1 for an entering-variable bound flip
	hitLower bool    // blocking basic leaves at its lower bound
}

// ratioTest finds how far the entering column can move in direction dir.
// phase1 permits infeasible basics to travel to (and block at) the bound
// they currently violate. Returns t = +Inf when unblocked.
func (s *simplex) ratioTest(enter int, dir float64, phase1 bool) ratioResult {
	tol := s.opt.FeasTol
	ptol := s.opt.PivotTol
	res := ratioResult{t: math.Inf(1), row: -1}
	// The entering variable's own span (bound flip).
	if span := s.ub[enter] - s.lb[enter]; !math.IsInf(span, 1) {
		res.t = span
	}
	bestAlpha := 0.0
	for i := 0; i < s.m; i++ {
		alpha := s.tab[i][enter]
		if alpha > -ptol && alpha < ptol {
			continue
		}
		k := s.basis[i]
		rate := -alpha * dir // change rate of xB[i] per unit step
		var t float64
		var hitLower bool
		belowLB := s.lb[k]-s.xB[i] > tol
		aboveUB := s.xB[i]-s.ub[k] > tol
		switch {
		case phase1 && belowLB:
			if rate <= ptol {
				continue // moving away or parallel: no block from this row
			}
			t = (s.lb[k] - s.xB[i]) / rate
			hitLower = true
		case phase1 && aboveUB:
			if rate >= -ptol {
				continue
			}
			t = (s.xB[i] - s.ub[k]) / (-rate)
			hitLower = false
		case rate > ptol:
			if math.IsInf(s.ub[k], 1) {
				continue
			}
			t = (s.ub[k] - s.xB[i]) / rate
			hitLower = false
		case rate < -ptol:
			if math.IsInf(s.lb[k], -1) {
				continue
			}
			t = (s.xB[i] - s.lb[k]) / (-rate)
			hitLower = true
		default:
			continue
		}
		if t < 0 {
			t = 0
		}
		// Prefer strictly smaller steps; among (near-)ties prefer the larger
		// pivot magnitude for numerical stability, or the lowest basis index
		// under Bland's rule.
		const tieTol = 1e-10
		switch {
		case t < res.t-tieTol:
			res = ratioResult{t: t, row: i, hitLower: hitLower}
			bestAlpha = math.Abs(alpha)
		case t <= res.t+tieTol && res.row >= 0:
			if s.bland {
				if s.basis[i] < s.basis[res.row] {
					res = ratioResult{t: t, row: i, hitLower: hitLower}
					bestAlpha = math.Abs(alpha)
				}
			} else if math.Abs(alpha) > bestAlpha {
				res = ratioResult{t: t, row: i, hitLower: hitLower}
				bestAlpha = math.Abs(alpha)
			}
		}
	}
	return res
}

// step applies the chosen entering move: either a bound flip of the entering
// column or a basis change with tableau pivot. updateD says whether the
// reduced-cost vector s.d should be pivoted along (phase 2 only).
func (s *simplex) step(enter int, dir float64, r ratioResult, updateD bool) {
	if r.row < 0 {
		// Bound flip across the entering variable's whole span.
		delta := dir * r.t
		for i := 0; i < s.m; i++ {
			if a := s.tab[i][enter]; a != 0 {
				s.xB[i] -= a * delta
			}
		}
		if s.stat[enter] == csAtLower {
			s.stat[enter] = csAtUpper
		} else {
			s.stat[enter] = csAtLower
		}
		return
	}
	// Basis change: entering moves by dir*t, blocking basic leaves.
	newVal := s.value(enter) + dir*r.t
	for i := 0; i < s.m; i++ {
		if a := s.tab[i][enter]; a != 0 {
			s.xB[i] -= a * dir * r.t
		}
	}
	row, leave := r.row, s.basis[r.row]
	// Snap the leaving variable exactly onto its bound.
	if r.hitLower {
		s.stat[leave] = csAtLower
		s.xB[row] = s.lb[leave]
	} else {
		s.stat[leave] = csAtUpper
		s.xB[row] = s.ub[leave]
	}
	s.inRow[leave] = -1

	piv := s.tab[row][enter]
	trow := s.tab[row]
	inv := 1 / piv
	for j := 0; j < s.n; j++ {
		if trow[j] != 0 {
			trow[j] *= inv
		}
	}
	trow[enter] = 1 // exact
	s.rhs[row] *= inv
	for i := 0; i < s.m; i++ {
		if i == row {
			continue
		}
		f := s.tab[i][enter]
		if f == 0 {
			continue
		}
		ti := s.tab[i]
		// The pivot row stays sparse until fill-in accumulates; skipping
		// its zeros is exact and dominates the elimination cost.
		for j := 0; j < s.n; j++ {
			if v := trow[j]; v != 0 {
				ti[j] -= f * v
			}
		}
		ti[enter] = 0 // exact
		s.rhs[i] -= f * s.rhs[row]
	}
	if updateD {
		f := s.d[enter]
		if f != 0 {
			for j := 0; j < s.n; j++ {
				if v := trow[j]; v != 0 {
					s.d[j] -= f * v
				}
			}
		}
		s.d[enter] = 0
	}
	s.basis[row] = enter
	s.inRow[enter] = row
	s.stat[enter] = csBasic
	s.xB[row] = newVal

	if r.t <= s.opt.FeasTol {
		s.degen++
	} else {
		s.degen = 0
		s.bland = false
	}
	if s.degen > 2*(s.m+s.n)+50 {
		s.bland = true
	}
}

// phase1 restores primal feasibility of the basis. It returns false if the
// LP is infeasible, and an error on iteration exhaustion.
func (s *simplex) phase1() (feasible bool, err error) {
	g := s.g
	//dartvet:allow ctxloop -- bounded by the opt.MaxIters check on entry; milp.Solve polls Cancel between LP solves
	for {
		if s.iters >= s.opt.MaxIters {
			return false, fmt.Errorf("milp: simplex phase 1 exceeded %d iterations", s.opt.MaxIters)
		}
		if !s.phase1Costs(g) {
			return true, nil
		}
		enter, dir := s.chooseEntering(g)
		if enter < 0 {
			return false, nil // locally optimal with positive infeasibility
		}
		r := s.ratioTest(enter, dir, true)
		if math.IsInf(r.t, 1) {
			// The infeasibility can be reduced without ever blocking, which
			// cannot happen for a bounded-below objective unless tolerances
			// misfire; treat as infeasible rather than looping.
			return false, fmt.Errorf("milp: phase 1 unbounded descent (numerical trouble)")
		}
		s.iters++
		s.step(enter, dir, r, false)
	}
}

// phase2 optimizes the objective from a feasible basis.
func (s *simplex) phase2() (Status, error) {
	s.computeReducedCosts()
	recompute := 0
	//dartvet:allow ctxloop -- bounded by the opt.MaxIters check on entry; milp.Solve polls Cancel between LP solves
	for {
		if s.iters >= s.opt.MaxIters {
			return StatusIterLimit, nil
		}
		enter, dir := s.chooseEntering(s.d)
		if enter < 0 {
			return StatusOptimal, nil
		}
		r := s.ratioTest(enter, dir, false)
		if math.IsInf(r.t, 1) {
			return StatusUnbounded, nil
		}
		s.iters++
		s.step(enter, dir, r, true)
		// Periodically recompute reduced costs to shed accumulated error.
		recompute++
		if recompute >= 256 {
			s.computeReducedCosts()
			recompute = 0
		}
	}
}

// objective returns the current objective value.
func (s *simplex) objective() float64 {
	z := 0.0
	for j := 0; j < s.nv; j++ {
		if s.obj[j] != 0 {
			z += s.obj[j] * s.value(j)
		}
	}
	return z
}

// solution extracts structural variable values.
func (s *simplex) solution() []float64 {
	x := make([]float64, s.nv)
	s.fillSolution(x)
	return x
}

// fillSolution writes the structural variable values into dst (len >= nv)
// without allocating.
func (s *simplex) fillSolution(dst []float64) {
	for j := 0; j < s.nv; j++ {
		dst[j] = s.value(j)
	}
}

// run executes both phases, leaving the optimum in the working state. It
// allocates nothing; branch and bound reads the objective and solution
// straight out of the state.
func (s *simplex) run() (Status, error) {
	// Trivial infeasibility: reversed bounds after overrides.
	for j := 0; j < s.n; j++ {
		if s.lb[j] > s.ub[j]+s.opt.FeasTol {
			return StatusInfeasible, nil
		}
	}
	feasible, err := s.phase1()
	if err != nil {
		return StatusInfeasible, err
	}
	if !feasible {
		return StatusInfeasible, nil
	}
	return s.phase2()
}

// resolve re-optimizes the optimal state after column j's bounds change to
// [lb, ub], as branch and bound does for a child of the node just solved:
// the branch tightened one bound of a basic variable, so the basis stays
// dual feasible, a dual simplex restores primal feasibility, and phase 2
// confirms optimality. ok is false when the warm start does not apply — j
// is nonbasic, its value already fits the new bounds, or the dual simplex
// exhausts its budget — and the caller must solve cold (reset and run);
// the state is then unspecified. Like run, resolve allocates nothing.
func (s *simplex) resolve(j int, lb, ub float64) (st Status, ok bool, err error) {
	s.iters, s.degen, s.bland = 0, 0, false
	if s.stat[j] != csBasic {
		return 0, false, nil
	}
	s.lb[j], s.ub[j] = lb, ub
	if x := s.xB[s.inRow[j]]; x >= lb-s.opt.FeasTol && x <= ub+s.opt.FeasTol {
		// Nothing for the dual simplex to repair: a cold solve decides
		// whether the node really moves, so a branch can never repeat.
		return 0, false, nil
	}
	feasible, ok := s.dual()
	if !ok {
		return 0, false, nil
	}
	if !feasible {
		return StatusInfeasible, true, nil
	}
	st, err = s.phase2()
	return st, true, err
}

// dual runs a bounded-variable dual simplex from a dual feasible basis
// (reduced costs s.d of the right sign on every nonbasic column) until
// every basic variable lies within its bounds. Each iteration takes the
// basic variable with the largest bound violation out of the basis at the
// bound it violates and brings in the column that keeps the basis dual
// feasible: the smallest ratio |d_j|/|alpha_j| among the nonbasic columns
// that can move the leaving variable toward its bound. feasible is false
// when a violated row has no such column, which proves the LP infeasible;
// ok is false when the iteration budget runs out.
func (s *simplex) dual() (feasible, ok bool) {
	tol, ptol := s.opt.FeasTol, s.opt.PivotTol
	limit := min(2*(s.m+s.n)+50, s.opt.MaxIters)
	//dartvet:allow ctxloop -- bounded by the iteration budget checked each pass; milp.Solve polls Cancel between LP solves
	for {
		row, viol, need := -1, tol, 0.0 // need: +1 to rise to lb, -1 to fall to ub
		for i := 0; i < s.m; i++ {
			k := s.basis[i]
			//dartvet:allow floatcmp -- viol is seeded with the feasibility tolerance
			if v := s.lb[k] - s.xB[i]; v > viol {
				row, viol, need = i, v, 1
				//dartvet:allow floatcmp -- viol is seeded with the feasibility tolerance
			} else if v := s.xB[i] - s.ub[k]; v > viol {
				row, viol, need = i, v, -1
			}
		}
		if row < 0 {
			return true, true
		}
		if s.iters >= limit {
			return false, false
		}
		trow := s.tab[row]
		enter, dir, best, bestAlpha := -1, 0.0, math.Inf(1), 0.0
		for j := 0; j < s.n; j++ {
			alpha := trow[j]
			if (alpha > -ptol && alpha < ptol) || s.stat[j] == csBasic {
				continue
			}
			// Moving x_j in direction move changes the leaving variable at
			// rate -alpha*move, which must have the sign of need.
			move := need
			if alpha > 0 {
				move = -need
			}
			switch s.stat[j] {
			case csAtLower:
				if move < 0 || s.ub[j]-s.lb[j] <= 0 {
					continue // cannot decrease, or fixed
				}
			case csAtUpper:
				if move > 0 || s.ub[j]-s.lb[j] <= 0 {
					continue
				}
			}
			a := math.Abs(alpha)
			ratio := math.Abs(s.d[j]) / a
			// Smallest ratio; among (near-)ties the larger pivot magnitude,
			// then the lowest column, for stability and a fixed choice.
			const tieTol = 1e-10
			//dartvet:allow floatcmp -- pivot magnitude breaks ties the tieTol test already fuzzed
			if ratio < best-tieTol || (ratio <= best+tieTol && a > bestAlpha) {
				enter, dir, best, bestAlpha = j, move, ratio, a
			}
		}
		if enter < 0 {
			return false, true
		}
		s.iters++
		s.step(enter, dir, ratioResult{t: viol / bestAlpha, row: row, hitLower: need > 0}, true)
	}
}

// solveLP runs both phases and packages the result.
func (s *simplex) solveLP() (*LPResult, error) {
	st, err := s.run()
	if err != nil {
		return nil, err
	}
	res := &LPResult{Status: st, Iterations: s.iters}
	if st == StatusOptimal || st == StatusIterLimit {
		res.Objective = s.objective()
		res.X = s.solution()
	}
	return res, nil
}

// SolveLP solves the linear relaxation of the model (integrality ignored)
// with the given options.
func SolveLP(m *Model, opt SimplexOptions) (*LPResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	s := acquireSimplex()
	defer releaseSimplex(s)
	s.reset(m, buildCSR(m), opt, nil, nil)
	return s.solveLP()
}

// solveLPWithBounds solves the relaxation with per-variable bound overrides
// on a pooled state, reading the rows from cs (the caller's CSR form of m).
// The branch-and-bound rounding heuristic uses it; node solves run on the
// search's own state.
func solveLPWithBounds(m *Model, cs *csrMatrix, opt SimplexOptions, lb, ub []float64) (*LPResult, error) {
	s := acquireSimplex()
	defer releaseSimplex(s)
	s.reset(m, cs, opt, lb, ub)
	return s.solveLP()
}
