package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"dart/internal/aggrcons"
	"dart/internal/relational"
)

// Problem is a prepared repair problem: the grounded linear system S(AC) of
// one (database, constraints) pair together with everything derivable from
// it alone — the connected-component decomposition, the per-item
// occurrence counts that drive the validation interface's display order —
// and a per-solver memo of already-solved components. Grounding a
// constraint set touches every tuple of the database; the validation loop
// of Section 6.3 re-solves after every batch of operator decisions, so
// building the system once per (database, constraints) pair and re-solving
// the prepared problem under changing pins removes an N× grounding cost
// from the loop. Prepare is the single entry point; solvers consume the
// problem through SolveProblem.
//
// A Problem is safe for concurrent use: sessions sharing one problem share
// the memo under a mutex.
type Problem struct {
	db  *relational.Database
	acs []*aggrcons.Constraint
	sys *System

	mu      sync.Mutex
	comps   []*System
	occ     []int
	solvers map[string]*solverState
	stats   ProblemStats
}

// ProblemStats counts component-level solver work across the lifetime of a
// prepared problem. ComponentsSolved is the number of violated components
// actually handed to a solver; ComponentsReused is the number served from
// the memo because an identical component solve (same solver configuration,
// same pins restricted to the component) had already run.
type ProblemStats struct {
	ComponentsSolved int
	ComponentsReused int
}

// solverState is the per-solver-configuration slice of the memo.
type solverState struct {
	comps map[int]*componentState
}

// componentState memoizes solves of one connected component under one
// solver configuration.
type componentState struct {
	// memo maps a pin signature (pins restricted to the component's items)
	// to the finished component solve.
	memo map[string]*componentMemo
	// lastVals is the solved value vector of the most recent optimal solve,
	// kept as a warm-start candidate for solves under different pins.
	lastVals []float64
}

// componentMemo is one memoized component solve. Both fields are
// read-only after insertion.
type componentMemo struct {
	res  *Result
	vals []float64
}

// Prepare grounds the constraints on db once and returns the prepared
// problem. It fails exactly when BuildSystem does (non-steady or invalid
// constraints).
func Prepare(db *relational.Database, acs []*aggrcons.Constraint) (*Problem, error) {
	g, err := aggrcons.NewGrounding(db, acs)
	if err != nil {
		return nil, err
	}
	return PrepareGrounded(g)
}

// PrepareGrounded returns the prepared problem of an existing grounding,
// translating it without grounding again: a caller that already grounded
// the database to check it pays for grounding once. It fails when a
// constraint is not steady.
func PrepareGrounded(g *aggrcons.Grounding) (*Problem, error) {
	sys, err := buildSystem(g)
	if err != nil {
		return nil, err
	}
	return &Problem{db: g.Database(), acs: g.Constraints(), sys: sys, solvers: map[string]*solverState{}}, nil
}

// Database returns the database the problem was prepared for.
func (p *Problem) Database() *relational.Database { return p.db }

// Constraints returns the constraint set the problem was prepared for.
func (p *Problem) Constraints() []*aggrcons.Constraint { return p.acs }

// System returns the grounded linear system S(AC). Callers must not
// mutate it.
func (p *Problem) System() *System { return p.sys }

// N returns the number of involved values.
func (p *Problem) N() int { return p.sys.N() }

// Components returns the connected-component decomposition, computed once
// and shared. Callers must not mutate the returned systems.
func (p *Problem) Components() []*System {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.comps == nil {
		p.comps = p.sys.Split()
	}
	return p.comps
}

// Occurrences returns the per-item ground-constraint participation counts
// (Section 6.3's display-ordering heuristic), computed once and shared.
// Callers must not mutate the returned slice.
func (p *Problem) Occurrences() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.occ == nil {
		p.occ = p.sys.Occurrences()
	}
	return p.occ
}

// Evidence renders the ground constraints whose translation mentions the
// item, capped at max entries (0 = all). The validation layer attaches
// these to suggestions so an operator sees *why* a cell is implicated
// before deciding.
func (p *Problem) Evidence(it Item, max int) []string {
	i := p.sys.IndexOf(it)
	if i < 0 {
		return nil
	}
	var out []string
	for _, r := range p.sys.Rows {
		if _, ok := slices.BinarySearch(r.Idx, i); !ok {
			continue
		}
		if r.Ground != nil {
			out = append(out, r.Ground.String())
		} else {
			out = append(out, r.Name)
		}
		if max > 0 && len(out) == max {
			break
		}
	}
	return out
}

// Stats returns a snapshot of the component-solve counters.
func (p *Problem) Stats() ProblemStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// pinKey builds the memo signature of a pin set restricted to one
// component: Compile and violatedRows only ever read pins of items the
// component contains, so two solves of the same component under pin sets
// that agree on the component's items produce identical results.
func pinKey(sub *System, forced map[Item]float64) string {
	if len(forced) == 0 {
		return ""
	}
	var b strings.Builder
	for i, it := range sub.Items {
		if v, ok := forced[it]; ok {
			b.WriteString(strconv.Itoa(i))
			b.WriteByte('=')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			b.WriteByte(';')
		}
	}
	return b.String()
}

// componentState returns (creating on demand) the memo slot of one
// component under one solver fingerprint. Callers must hold p.mu.
func (p *Problem) componentState(fingerprint string, ci int) *componentState {
	ss := p.solvers[fingerprint]
	if ss == nil {
		ss = &solverState{comps: map[int]*componentState{}}
		p.solvers[fingerprint] = ss
	}
	cs := ss.comps[ci]
	if cs == nil {
		cs = &componentState{memo: map[string]*componentMemo{}}
		ss.comps[ci] = cs
	}
	return cs
}

// lookupComponent returns the memoized solve of component ci under the
// given solver fingerprint and pin signature, counting a reuse on hit.
func (p *Problem) lookupComponent(fingerprint string, ci int, key string) (*componentMemo, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := p.componentState(fingerprint, ci)
	m, ok := cs.memo[key]
	if ok {
		p.stats.ComponentsReused++
	}
	return m, ok
}

// warmStart returns the solved value vector of the most recent optimal
// solve of component ci under the fingerprint, or nil.
func (p *Problem) warmStart(fingerprint string, ci int) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := p.componentState(fingerprint, ci)
	return cs.lastVals
}

// storeComponent memoizes a finished component solve and counts it.
// Non-optimal results are recorded for reuse (the identical re-solve would
// fail identically) but never become warm-start candidates.
func (p *Problem) storeComponent(fingerprint string, ci int, key string, res *Result, vals []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := p.componentState(fingerprint, ci)
	cs.memo[key] = &componentMemo{res: res, vals: vals}
	if vals != nil {
		cs.lastVals = vals
	}
	p.stats.ComponentsSolved++
}

// solvedValues reconstructs the full value vector of a component solve:
// the acquired values overlaid with the repair's updates. The result is
// domain-exact (update values passed through relational.FromFloat), which
// warmCutoff relies on.
func solvedValues(sub *System, rep *Repair) []float64 {
	vals := append([]float64(nil), sub.V...)
	for _, u := range rep.Updates {
		if i := sub.IndexOf(u.Item); i >= 0 {
			vals[i] = u.New.AsFloat()
		}
	}
	return vals
}

// warmCutoff checks whether a candidate value vector is a feasible point
// of the component under the current pins and big-M bound, and if so
// returns its objective value (the number of changed items) for use as an
// exactness-preserving branch-and-bound cutoff. The check is strict:
// every row must hold within 1e-9 relative tolerance, every pinned item
// must carry exactly its pinned value, and every displacement must stay
// clear of the big-M bound so the claimed point is feasible in the
// M-model. Items are counted as changed on exact float inequality, which
// is safe because candidate vectors come from solvedValues (domain-exact)
// overlaid with operator pins.
func warmCutoff(sub *System, candidate []float64, forced map[Item]float64, mBound float64) (float64, bool) {
	vals := append([]float64(nil), candidate...)
	for it, v := range forced {
		if i := sub.IndexOf(it); i >= 0 {
			vals[i] = v
		}
	}
	card := 0.0
	for i, v := range vals {
		//dartvet:allow floatcmp -- candidates are copied bit-for-bit from solvedValues, so inequality means a real change
		if v != sub.V[i] {
			d := v - sub.V[i]
			if d < 0 {
				d = -d
			}
			if d > 0.999*mBound {
				return 0, false
			}
			card++
		}
	}
	if len(violatedRows(sub, vals, 1e-9)) > 0 {
		return 0, false
	}
	return card, true
}

// VerifyRepair checks a repair against the prepared system's rows with
// the solvers' relative tolerance eps*(1+|RHS|). The rows are exactly the
// ground constraints of the (database, constraints) pair — grounding
// depends only on the non-measure attributes a repair never touches — so
// evaluating them at the repaired values stands in for re-checking the
// repaired database, without cloning it or grounding again. Every solver
// runs it on its own result; the validation session runs it once more on
// the accepted repair.
func (p *Problem) VerifyRepair(rep *Repair, eps float64) error {
	vals := solvedValues(p.sys, rep)
	if rows := violatedRows(p.sys, vals, eps); len(rows) > 0 {
		return fmt.Errorf("core: repaired values still violate %d ground constraint rows (first: row %d)",
			len(rows), rows[0])
	}
	return nil
}

// repairTol is the absolute tolerance of Repaired's row check.
const repairTol = 1e-6

// Repaired applies the repair to a copy of the problem's database, which
// enforces Definition 3 and the measure domains, and checks every row at
// the repaired values with absolute tolerance 1e-6. A row's residual is
// LHS - K of its ground on the repaired database, since the rows translate
// the ground constraints exactly; so Repaired accepts exactly the repairs
// VerifyRepairs(db, acs, rep, 1e-6) accepts and returns the same database,
// without grounding the copy again.
func (p *Problem) Repaired(rep *Repair) (*relational.Database, error) {
	repaired, err := rep.Applied(p.db)
	if err != nil {
		return nil, err
	}
	vals := solvedValues(p.sys, rep)
	var bad []int
	for ri := range p.sys.Rows {
		if !p.sys.Rows[ri].holds(vals, repairTol) {
			bad = append(bad, ri)
		}
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("core: repaired database still violates %d ground constraints (first: %s)",
			len(bad), p.sys.Rows[bad[0]].Ground)
	}
	return repaired, nil
}

// fingerprintOf derives the memo fingerprint of a solver: its name plus
// any configuration that changes solve results. Solvers with richer
// configuration implement solverFingerprint to refine it.
func fingerprintOf(s Solver) string {
	if f, ok := s.(interface{ solverFingerprint() string }); ok {
		return f.solverFingerprint()
	}
	return s.Name()
}
