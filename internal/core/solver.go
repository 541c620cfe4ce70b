package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"dart/internal/aggrcons"
	"dart/internal/milp"
	"dart/internal/obs"
	"dart/internal/relational"
)

// Result is the outcome of a repair computation.
type Result struct {
	// Repair is the computed repair (nil when Status is not optimal).
	Repair *Repair
	// Status is the solver outcome.
	Status milp.Status
	// Card is the repair cardinality (the optimum of S*(AC)).
	Card int
	// Nodes and Iterations account for branch-and-bound/simplex work.
	Nodes      int
	Iterations int
	// M is the big-M bound that produced the result.
	M float64
	// Escalations counts how many times M had to be enlarged.
	Escalations int
	// Components counts the violated connected components the solve had to
	// resolve (0 when decomposition is disabled).
	Components int
	// ComponentsReused counts how many of those components were served from
	// the prepared problem's memo instead of being solved again (always 0
	// for from-scratch solves).
	ComponentsReused int
}

// Solver computes repairs for databases violating steady aggregate
// constraints. Implementations: MILPSolver (the paper's method),
// CardinalitySearchSolver (exact alternative), GreedyLocalSolver and
// GreedyAggregateSolver (heuristic baselines for the evaluation).
//
// A solver works on a prepared Problem: grounding happens once in Prepare,
// and every subsequent solve — with forced pins from the validation loop
// applied as variable-bound updates — reuses the grounded system and its
// component decomposition. FindRepair is the one-shot entry point that
// prepares and solves in a single call.
type Solver interface {
	// Name identifies the solver in benchmark reports.
	Name() string
	// SolveProblem computes a repair of the prepared problem. Forced pins
	// items to operator-supplied values (may be nil). Implementations honor
	// ctx at least with an up-front check; MILPSolver also polls it once
	// per branch-and-bound node.
	SolveProblem(ctx context.Context, prob *Problem, forced map[Item]float64) (*Result, error)
}

// FindRepair computes a repair of db w.r.t. acs from scratch: it prepares
// a fresh problem and dispatches one SolveProblem under ctx. Loops that
// re-solve under changing pins should Prepare once and call SolveProblem
// directly instead, which skips re-grounding.
func FindRepair(ctx context.Context, s Solver, db *relational.Database, acs []*aggrcons.Constraint, forced map[Item]float64) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prob, err := Prepare(db, acs)
	if err != nil {
		return nil, err
	}
	return s.SolveProblem(ctx, prob, forced)
}

// MILPSolver computes a card-minimal repair by solving S*(AC) (Section 5).
type MILPSolver struct {
	// Formulation selects the literal Eq.-(8) layout or the reduced one.
	Formulation Formulation
	// BigM overrides the big-M constant; 0 derives it from the data.
	BigM float64
	// Options tunes the underlying branch-and-bound.
	Options milp.MILPOptions
	// SkipVerify disables the post-solve consistency verification.
	SkipVerify bool
	// DisableCoverCuts turns off the violated-row cover cuts (for the E8
	// ablation); see CompileOptions.DisableCoverCuts.
	DisableCoverCuts bool
	// DisableDecomposition solves the whole system as one MILP instead of
	// per connected component (for the E3 ablation).
	DisableDecomposition bool
	// Workers bounds the number of connected components solved
	// concurrently; 0 or 1 solves sequentially. Components are independent
	// subproblems, so parallel solving is exact; results merge in
	// deterministic component order.
	Workers int
	// SolverWorkers is the total branch-and-bound worker budget shared by
	// all concurrently solving components (two-level parallelism:
	// components x nodes). 0 means GOMAXPROCS. Each component solve gets
	// budget/active-components node workers (at least one); worker counts
	// never change results (see milp.MILPOptions.Workers), so neither
	// Workers nor SolverWorkers participates in the memo fingerprint.
	SolverWorkers int
	// MaxEscalations bounds big-M escalation attempts (default 3).
	MaxEscalations int
	// DisableWarmStart turns off the warm-start cutoff derived from a
	// prepared problem's previous solve of the same component (for
	// benchmarking the effect; results are identical either way).
	DisableWarmStart bool
}

// Name implements Solver.
func (s *MILPSolver) Name() string { return "milp-" + s.Formulation.String() }

// solverFingerprint keys the prepared problem's component memo: every
// configuration field that can change a solve result participates.
func (s *MILPSolver) solverFingerprint() string {
	return s.Name() +
		"|m=" + strconv.FormatFloat(s.BigM, 'g', -1, 64) +
		"|cc=" + strconv.FormatBool(s.DisableCoverCuts) +
		"|esc=" + strconv.Itoa(s.MaxEscalations) +
		"|nodes=" + strconv.Itoa(s.Options.MaxNodes) +
		"|tol=" + strconv.FormatFloat(s.Options.IntTol, 'g', -1, 64) +
		"|round=" + strconv.FormatBool(s.Options.DisableRounding)
}

// SolveProblem implements Solver on a prepared problem: components whose
// pin signature matches a previous solve are served from the memo, and
// fresh component solves warm-start branch and bound from the previous
// solution when it remains feasible under the new pins.
func (s *MILPSolver) SolveProblem(ctx context.Context, prob *Problem, forced map[Item]float64) (*Result, error) {
	var res *Result
	var err error
	if s.DisableDecomposition {
		res, err = s.solveSystem(ctx, prob.System(), forced, prob.Database(), nil, s.nodeWorkers(1))
	} else {
		res, err = s.solvePrepared(ctx, prob, forced)
	}
	if err != nil {
		return nil, err
	}
	if res.Repair != nil {
		res.Repair.Sort()
		res.Card = res.Repair.Card()
		if !s.SkipVerify {
			if err := prob.VerifyRepair(res.Repair, 1e-6); err != nil {
				return nil, fmt.Errorf("core: MILP solution failed verification: %w", err)
			}
		}
	}
	return res, nil
}

// solvePrepared walks the prepared problem's connected components and
// solves only those containing violated rows, optionally in parallel.
// Component solves are memoized on the problem keyed by the solver
// configuration and the pins restricted to the component, so a validation
// loop re-solves only the components its latest pins actually touch.
func (s *MILPSolver) solvePrepared(ctx context.Context, prob *Problem, forced map[Item]float64) (*Result, error) {
	fp := fingerprintOf(s)
	total := &Result{Status: milp.StatusOptimal, Repair: &Repair{}}
	type pendingComp struct {
		ci  int
		sub *System
	}
	var pending []pendingComp
	for ci, sub := range prob.Components() {
		vals := append([]float64(nil), sub.V...)
		for it, v := range forced {
			if i := sub.IndexOf(it); i >= 0 {
				vals[i] = v
			}
		}
		if len(violatedRows(sub, vals, 1e-6)) == 0 {
			// The component is consistent; forced items that differ from
			// the acquired values still become updates.
			rep := repairFromValues(prob.Database(), sub, vals)
			total.Repair.Updates = append(total.Repair.Updates, rep.Updates...)
			continue
		}
		if len(sub.Items) == 0 {
			// A violated variable-free row: no repair exists.
			return &Result{Status: milp.StatusInfeasible}, nil
		}
		pending = append(pending, pendingComp{ci, sub})
	}

	// Split the node-worker budget across the components that actually solve
	// concurrently; a lone (or sequential) component gets the whole budget.
	concurrent := 1
	if s.Workers > 1 && len(pending) > 1 {
		concurrent = min(s.Workers, len(pending))
	}
	nodeWorkers := s.nodeWorkers(concurrent)

	// Live aggregation: the components-solved plan/done timeline the
	// progress endpoint folds into components_done/components_total. All
	// no-ops (two nil checks, no allocation) unless the job's trace is
	// bus-bound.
	jobSpan := obs.FromContext(ctx)
	jobSpan.Publish(obs.Event{Kind: obs.KindComponent, Name: "plan", Total: len(pending)})
	var solvedComponents atomic.Int64

	results := make([]*Result, len(pending))
	reused := make([]bool, len(pending))
	errs := make([]error, len(pending))
	solveOne := func(ctx context.Context, i int, pc pendingComp) {
		// One "repair.component" span per component solve: sizes up front,
		// solver work (or the memo hit) on completion. On a live trace the
		// span is scope-tagged so every solver event the component's branch
		// and bound publishes carries its component index.
		if span := obs.FromContext(ctx).StartChild("repair.component"); span != nil {
			defer span.End()
			span.SetInt("component", pc.ci)
			if span.IsLive() {
				span.PublishScope("component:" + strconv.Itoa(pc.ci))
			}
			span.SetInt("vars", pc.sub.N())
			span.SetInt("rows", len(pc.sub.Rows))
			occ := 0
			for _, r := range pc.sub.Rows {
				occ += len(r.Coeffs)
			}
			span.SetInt("occurrences", occ)
			ctx = obs.ContextWithSpan(ctx, span)
			defer func() {
				if res := results[i]; res != nil {
					span.SetBool("memo_hit", reused[i])
					span.SetStr("status", res.Status.String())
					span.SetInt("nodes", res.Nodes)
					span.SetInt("lp_iterations", res.Iterations)
					span.SetInt("escalations", res.Escalations)
					span.SetFloat("big_m", res.M)
					if res.Repair != nil {
						span.SetInt("card", res.Repair.Card())
					}
				} else if errs[i] != nil {
					span.SetStr("error", errs[i].Error())
				}
			}()
		}
		key := pinKey(pc.sub, forced)
		if m, ok := prob.lookupComponent(fp, pc.ci, key); ok {
			results[i] = m.res
			reused[i] = true
			jobSpan.Publish(obs.Event{Kind: obs.KindComponent, Name: "done",
				Done: int(solvedComponents.Add(1)), Total: len(pending)})
			return
		}
		var warm []float64
		if !s.DisableWarmStart {
			warm = prob.warmStart(fp, pc.ci)
		}
		res, err := s.solveSystem(ctx, pc.sub, forced, prob.Database(), warm, nodeWorkers)
		if err != nil {
			errs[i] = err
			return
		}
		var vals []float64
		if res.Status == milp.StatusOptimal && res.Repair != nil {
			vals = solvedValues(pc.sub, res.Repair)
		}
		prob.storeComponent(fp, pc.ci, key, res, vals)
		results[i] = res
		jobSpan.Publish(obs.Event{Kind: obs.KindComponent, Name: "done",
			Done: int(solvedComponents.Add(1)), Total: len(pending)})
	}
	if concurrent > 1 {
		// A failing component solve cancels its siblings instead of letting
		// them run to completion; the error returned below is still picked
		// deterministically (lowest component index wins).
		cctx, cancelAll := context.WithCancel(ctx)
		defer cancelAll()
		sem := make(chan struct{}, s.Workers)
		var wg sync.WaitGroup
		for i, pc := range pending {
			wg.Add(1)
			go func(i int, pc pendingComp) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				solveOne(cctx, i, pc)
				if errs[i] != nil {
					cancelAll()
				}
			}(i, pc)
		}
		wg.Wait()
	} else {
		for i, pc := range pending {
			solveOne(ctx, i, pc)
			if errs[i] != nil {
				break
			}
		}
	}

	// Pick the surfaced error deterministically: the lowest-index component
	// with a real failure wins; sibling aborts triggered by cancelAll (plain
	// context.Canceled not caused by the caller's own context) never mask it.
	var firstErr error
	for i := range pending {
		if errs[i] != nil && !errors.Is(errs[i], context.Canceled) {
			firstErr = errs[i]
			break
		}
	}
	if firstErr == nil {
		for i := range pending {
			if errs[i] != nil {
				firstErr = errs[i]
				break
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	for i := range pending {
		res := results[i]
		if reused[i] {
			total.ComponentsReused++
		} else {
			total.Nodes += res.Nodes
			total.Iterations += res.Iterations
			total.Escalations += res.Escalations
		}
		total.Components++
		total.M = max(total.M, res.M)
		if res.Status != milp.StatusOptimal {
			return &Result{Status: res.Status, Nodes: total.Nodes, Iterations: total.Iterations, Components: total.Components, ComponentsReused: total.ComponentsReused}, nil
		}
		total.Repair.Updates = append(total.Repair.Updates, res.Repair.Updates...)
	}
	return total, nil
}

// nodeWorkers splits the branch-and-bound worker budget across concurrent
// component solves: each gets at least one node worker, and a lone
// component gets the whole budget.
func (s *MILPSolver) nodeWorkers(concurrent int) int {
	budget := s.SolverWorkers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	if concurrent < 1 {
		concurrent = 1
	}
	return max(1, budget/concurrent)
}

// solveSystem compiles and solves one system, escalating the big-M bound
// when it proves binding or spuriously infeasible. A non-nil warm vector
// (the solved values of a previous solve of the same system under other
// pins) is turned into an exactness-preserving branch-and-bound cutoff
// whenever it remains feasible under the current pins and M bound.
// nodeWorkers is this solve's share of the branch-and-bound worker budget;
// an explicit Options.Workers takes precedence.
func (s *MILPSolver) solveSystem(ctx context.Context, sys *System, forced map[Item]float64, db *relational.Database, warm []float64, nodeWorkers int) (*Result, error) {
	maxEsc := s.MaxEscalations
	if maxEsc == 0 {
		maxEsc = 3
	}
	opts := s.Options
	if ctx.Done() != nil {
		opts.Cancel = ctx.Err
	}
	if opts.Workers == 0 {
		opts.Workers = nodeWorkers
	}
	// Attach the branch-and-bound's per-worker spans and search events to
	// the enclosing span (the component solve, typically). Observational
	// only: never part of the solver fingerprint.
	opts.Trace = obs.FromContext(ctx)
	mBound := s.BigM
	if mBound <= 0 {
		mBound = sys.PracticalM()
	}
	res := &Result{}
	for attempt := 0; ; attempt++ {
		opts.CutoffObjective = nil
		if warm != nil {
			if c, ok := warmCutoff(sys, warm, forced, mBound); ok {
				cc := c
				opts.CutoffObjective = &cc
			}
		}
		comp, err := Compile(sys, CompileOptions{
			Formulation:      s.Formulation,
			BigM:             mBound,
			Forced:           forced,
			DisableCoverCuts: s.DisableCoverCuts,
		})
		if err != nil {
			return nil, err
		}
		sol, err := milp.Solve(comp.Model, opts)
		if err != nil {
			return nil, err
		}
		res.Status = sol.Status
		res.Nodes += sol.Nodes
		res.Iterations += sol.Iterations
		res.M = mBound
		if sol.Status != milp.StatusOptimal {
			// Infeasibility can be an artifact of a too-small M: escalate.
			if sol.Status == milp.StatusInfeasible && attempt < maxEsc {
				mBound *= 32
				res.Escalations++
				continue
			}
			return res, nil
		}
		if comp.BoundBinding(sol.X) && attempt < maxEsc {
			mBound *= 32
			res.Escalations++
			continue
		}
		rep, err := comp.ExtractRepair(db, sol.X)
		if err != nil {
			return nil, err
		}
		res.Repair = rep
		res.Card = rep.Card()
		return res, nil
	}
}
