package milp

import (
	"fmt"
	"math"
	"sync"

	"dart/internal/obs"
)

// MILPOptions tunes the branch-and-bound search. The zero value selects
// defaults.
type MILPOptions struct {
	// Simplex options used for every LP relaxation.
	Simplex SimplexOptions
	// MaxNodes bounds the number of explored nodes; 0 means 200000.
	MaxNodes int
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
	// DisableRounding turns off the LP-rounding incumbent heuristic.
	DisableRounding bool
	// Cancel, when non-nil, is polled once per branch-and-bound node (and
	// once before a pure-LP dispatch); a non-nil return aborts the solve
	// with that error. Callers plumb context cancellation through it as
	// ctx.Err, so deadline and cancellation semantics survive unwrapped.
	Cancel func() error
	// CutoffObjective, when non-nil, declares that a feasible solution with
	// this objective value is already known (a warm start from a previous
	// solve). Branch and bound then prunes every subtree whose LP bound
	// proves it can only hold strictly worse solutions. The cutoff is
	// exactness-preserving: subtrees that could contain a solution of value
	// <= CutoffObjective are never pruned by it. Best-first order never
	// expands such a subtree before the optimum is found anyway, so the
	// search expands the same nodes in the same order and returns the same
	// incumbent as without the cutoff, just with less work. It is applied
	// only to models with a provably integral objective (all nonzero
	// objective coefficients integral on integer variables) — the
	// card-minimal repair objective is one — and ignored otherwise.
	CutoffObjective *float64
	// Trace, when non-nil, is the span the search records its events on:
	// an "incumbent" event on every incumbent replacement and a "cutoff"
	// event when a warm-start cutoff is armed.
	// When the span's trace is additionally bound to a live telemetry bus
	// (obs.Span.Live), the search publishes a solver event timeline —
	// incumbent / periodic progress / done, each with the bound, a monotone
	// non-increasing optimality gap, and node throughput (see progress.go).
	// Purely observational — it never changes results and never enters
	// solver fingerprints; a nil Trace costs only nil checks.
	Trace *obs.Span
}

func (o MILPOptions) withDefaults() MILPOptions {
	if o.MaxNodes == 0 {
		o.MaxNodes = 200000
	}
	if o.IntTol == 0 {
		o.IntTol = 1e-6
	}
	return o
}

// MILPResult is the outcome of a mixed-integer solve.
type MILPResult struct {
	Status    Status
	Objective float64
	X         []float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Iterations is the total simplex pivot count across all nodes.
	Iterations int
}

// bbNode is one branch-and-bound subproblem. Instead of cloning full bound
// vectors, a node records the single bound its branch tightened; effective
// bounds are materialized by walking the parent chain root-to-leaf into
// the search's scratch arrays (deeper deltas override shallower ones), or,
// on a dive, applied to its parent's bounds still in those arrays.
//
// seq is the node's path from the root: "" for the root, parent.seq+"0"
// for the down child, parent.seq+"1" for the up child. Lexicographic order
// on seq breaks incumbent ties (see search.go), which picks the answer
// among tied optima.
type bbNode struct {
	parent    *bbNode
	branchVar int
	branchVal float64
	branchUB  bool // the delta tightens the upper bound (down branch)
	bound     float64
	depth     int
	seq       string
}

// bbNodePool recycles leaf nodes: a node popped as pruned, or expanded
// without pushing children, is referenced by nobody (children hold the only
// parent references) and goes back to the pool.
var bbNodePool = sync.Pool{New: func() any { return new(bbNode) }}

func newNode(parent *bbNode, branchVar int, branchVal float64, branchUB bool, bound float64, seq string) *bbNode {
	n := bbNodePool.Get().(*bbNode)
	*n = bbNode{
		parent: parent, branchVar: branchVar, branchVal: branchVal, branchUB: branchUB,
		bound: bound, depth: parent.depth + 1, seq: seq,
	}
	return n
}

func releaseNode(n *bbNode) {
	*n = bbNode{} // drop the parent-chain and seq references for the GC
	bbNodePool.Put(n)
}

type nodeQueue []*bbNode

func (q nodeQueue) Len() int      { return len(q) }
func (q nodeQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q nodeQueue) Less(i, j int) bool {
	//dartvet:allow floatcmp -- heap ordering needs a total order; fuzzy ties would break the heap invariant
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	if q[i].depth != q[j].depth {
		return q[i].depth > q[j].depth // deeper first among equal bounds
	}
	return q[i].seq < q[j].seq // total order: ties pop in one fixed order
}
func (q *nodeQueue) Push(x any) { *q = append(*q, x.(*bbNode)) }
func (q *nodeQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// Solve minimizes the model. Pure LPs are dispatched straight to the
// simplex; models with integer variables go through branch and bound.
func Solve(m *Model, opt MILPOptions) (*MILPResult, error) {
	opt = opt.withDefaults()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if opt.Cancel != nil {
		if err := opt.Cancel(); err != nil {
			return nil, err
		}
	}
	if !m.HasIntegers() {
		lp, err := SolveLP(m, opt.Simplex)
		if err != nil {
			return nil, err
		}
		return &MILPResult{
			Status: lp.Status, Objective: lp.Objective, X: lp.X,
			Nodes: 1, Iterations: lp.Iterations,
		}, nil
	}
	return branchAndBound(m, opt, false)
}

// objIsIntegral reports whether every feasible integral assignment yields an
// integral objective: all nonzero objective coefficients are integers and
// sit on integer/binary variables.
func objIsIntegral(m *Model) bool {
	for j, c := range m.obj {
		if c == 0 {
			continue
		}
		//dartvet:allow floatcmp -- exact integrality gates a safe-only bound tightening; false negatives just skip it
		if m.vtype[j] == Continuous || c != math.Trunc(c) {
			return false
		}
	}
	return true
}

// branchAndBound tightens the root bounds, arms the warm-start cutoff and
// live telemetry, and runs the best-first search (search.go). cold solves
// every node from scratch instead of diving warm; only tests set it, to
// check dives against cold node solves.
func branchAndBound(m *Model, opt MILPOptions, cold bool) (*MILPResult, error) {
	nv := m.NumVars()

	rootLB := make([]float64, nv)
	rootUB := make([]float64, nv)
	copy(rootLB, m.lb)
	copy(rootUB, m.ub)
	// Tighten integer variable bounds to integral values up front.
	for j := 0; j < nv; j++ {
		if m.vtype[j] != Continuous {
			if !math.IsInf(rootLB[j], -1) {
				rootLB[j] = math.Ceil(rootLB[j] - opt.IntTol)
			}
			if !math.IsInf(rootUB[j], 1) {
				rootUB[j] = math.Floor(rootUB[j] + opt.IntTol)
			}
		}
	}

	integral := objIsIntegral(m)
	// A known-feasible objective value lets us discard subtrees that can only
	// contain solutions of value >= cutoff+1; subtrees that may still hold a
	// solution of value <= cutoff survive, keeping the search exact.
	cutoff := math.Inf(1)
	if opt.CutoffObjective != nil && integral {
		cutoff = *opt.CutoffObjective + 1
		opt.Trace.EventFloat("cutoff", "objective", *opt.CutoffObjective)
	}

	b := &bbSearch{
		m:        m,
		cs:       buildCSR(m),
		opt:      opt,
		integral: integral,
		cutoff:   cutoff,
		rootLB:   rootLB,
		rootUB:   rootUB,
		s:        acquireSimplex(),
		lb:       make([]float64, nv),
		ub:       make([]float64, nv),
		x:        make([]float64, nv),
		cand:     make([]float64, nv),
		cold:     cold,
	}
	defer releaseSimplex(b.s)
	if opt.Trace.IsLive() {
		// Live telemetry is armed once per solve; a solve whose trace is
		// not bus-bound leaves b.prog nil and pays nothing per node.
		b.prog = newBBSearchProgress()
	}
	res, err := b.run()
	if b.prog != nil && err == nil {
		b.publishDone(res)
	}
	return res, err
}

// candidateObjective is the objective value committed for a feasible
// integral candidate. With a provably integral objective it is recomputed
// exactly from the candidate point and rounded to the nearest integer, so
// candidates of equal value commit the identical float, incumbent ties are
// exact and the sequence tie-break decides. Otherwise the LP objective is
// used.
func candidateObjective(m *Model, x []float64, lpObj float64, integral bool) float64 {
	if !integral {
		return lpObj
	}
	z := 0.0
	for j, c := range m.obj {
		if c != 0 {
			z += c * x[j]
		}
	}
	return math.Round(z)
}

// mostFractional returns the integer variable whose LP value is farthest
// from integral (closest to x.5), or -1 when all are integral within tol.
func mostFractional(m *Model, x []float64, tol float64) int {
	best, bestDist := -1, tol
	for j := range x {
		if m.vtype[j] == Continuous {
			continue
		}
		//dartvet:allow floatcmp -- bestDist is seeded with the integrality tolerance, so the comparison is already fuzzed
		if d := math.Abs(x[j] - math.Round(x[j])); d > bestDist {
			best, bestDist = j, d
		}
	}
	return best
}

// roundIntegersInto snaps near-integral integer variables exactly, writing
// the result into dst (len(dst) == len(x)) without allocating.
func roundIntegersInto(dst []float64, m *Model, x []float64, tol float64) {
	copy(dst, x)
	for j := range dst {
		if m.vtype[j] != Continuous {
			r := math.Round(dst[j])
			if math.Abs(dst[j]-r) <= tol*10 {
				dst[j] = r
			}
		}
	}
}

// roundIntegers snaps near-integral integer variables exactly.
func roundIntegers(m *Model, x []float64, tol float64) []float64 {
	out := make([]float64, len(x))
	roundIntegersInto(out, m, x, tol)
	return out
}

// roundingHeuristic fixes every integer variable to the rounding of its LP
// value (clamped into the node bounds) and re-solves the continuous
// remainder, producing an early incumbent when the fixing stays feasible.
func roundingHeuristic(m *Model, cs *csrMatrix, opt MILPOptions, x []float64, lb, ub []float64) (float64, []float64, bool) {
	hlb := make([]float64, len(lb))
	hub := make([]float64, len(ub))
	copy(hlb, lb)
	copy(hub, ub)
	for j := range x {
		if m.vtype[j] == Continuous {
			continue
		}
		v := math.Round(x[j])
		// Round indicator-style variables up rather than to nearest: for
		// big-M formulations the LP drives them artificially low.
		//dartvet:allow floatcmp -- v < x[j] tests the rounding direction, not a magnitude
		if x[j] > opt.IntTol*100 && v < x[j] {
			v = math.Ceil(x[j] - opt.IntTol)
		}
		v = math.Max(v, hlb[j])
		v = math.Min(v, hub[j])
		hlb[j], hub[j] = v, v
	}
	lp, err := solveLPWithBounds(m, cs, opt.Simplex, hlb, hub)
	if err != nil || lp.Status != StatusOptimal {
		return 0, nil, false
	}
	return lp.Objective, roundIntegers(m, lp.X, opt.IntTol), true
}

// CheckFeasible verifies that x satisfies every constraint and bound of the
// model within tol, returning a descriptive error for the first violation.
// It is used by tests and by the repair module as a safety net.
func CheckFeasible(m *Model, x []float64, tol float64) error {
	if len(x) != m.NumVars() {
		return fmt.Errorf("milp: solution has %d values, model has %d variables", len(x), m.NumVars())
	}
	for j := range x {
		if x[j] < m.lb[j]-tol || x[j] > m.ub[j]+tol {
			return fmt.Errorf("milp: variable %s = %v outside bounds [%v, %v]",
				m.names[j], x[j], m.lb[j], m.ub[j])
		}
		if m.vtype[j] != Continuous {
			if math.Abs(x[j]-math.Round(x[j])) > tol {
				return fmt.Errorf("milp: variable %s = %v is not integral", m.names[j], x[j])
			}
		}
	}
	for _, r := range m.rows {
		act := 0.0
		for _, t := range r.Terms {
			act += t.Coeff * x[t.Var]
		}
		scale := 1.0 + math.Abs(r.RHS)
		switch r.Rel {
		case LE:
			if act > r.RHS+tol*scale {
				return fmt.Errorf("milp: constraint %q violated: %v > %v", r.Name, act, r.RHS)
			}
		case GE:
			if act < r.RHS-tol*scale {
				return fmt.Errorf("milp: constraint %q violated: %v < %v", r.Name, act, r.RHS)
			}
		case EQ:
			if math.Abs(act-r.RHS) > tol*scale {
				return fmt.Errorf("milp: constraint %q violated: %v != %v", r.Name, act, r.RHS)
			}
		}
	}
	return nil
}
