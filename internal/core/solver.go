package core

import (
	"context"
	"fmt"
	"strconv"

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
	// DisableCoverCuts turns off the violated-row cover cuts (for the E8
	// ablation); see CompileOptions.DisableCoverCuts.
	DisableCoverCuts bool
	// DisableDecomposition solves the whole system as one MILP instead of
	// per connected component (for the E3 ablation).
	DisableDecomposition bool
	// DisableWarmStart turns off the warm-start cutoff derived from a
	// prepared problem's previous solve of the same component (for
	// benchmarking the effect; results are identical either way).
	DisableWarmStart bool
}

// maxEscalations bounds the big-M escalation attempts of one system solve.
const maxEscalations = 3

// Name implements Solver.
func (s *MILPSolver) Name() string { return "milp-" + s.Formulation.String() }

// solverFingerprint keys the prepared problem's component memo: every
// configuration field that can change a solve result participates.
func (s *MILPSolver) solverFingerprint() string {
	return s.Name() +
		"|m=" + strconv.FormatFloat(s.BigM, 'g', -1, 64) +
		"|cc=" + strconv.FormatBool(s.DisableCoverCuts) +
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
		res, err = s.solveSystem(ctx, prob.System(), forced, prob.Database(), nil)
	} else {
		res, err = s.solvePrepared(ctx, prob, forced)
	}
	if err != nil {
		return nil, err
	}
	if res.Repair != nil {
		res.Repair.Sort()
		res.Card = res.Repair.Card()
		if err := prob.VerifyRepair(res.Repair, 1e-6); err != nil {
			return nil, fmt.Errorf("core: MILP solution failed verification: %w", err)
		}
	}
	return res, nil
}

// solvePrepared walks the prepared problem's connected components and
// solves, in component order, only those containing violated rows.
// Component solves are memoized on the problem keyed by the solver
// configuration and the pins restricted to the component, so a validation
// loop re-solves only the components its latest pins actually touch.
func (s *MILPSolver) solvePrepared(ctx context.Context, prob *Problem, forced map[Item]float64) (*Result, error) {
	fp := fingerprintOf(s)
	total := &Result{Status: milp.StatusOptimal, Repair: &Repair{}}
	var pending []int
	comps := prob.Components()
	for ci, sub := range comps {
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
		pending = append(pending, ci)
	}

	// Live aggregation: the components-solved plan/done timeline the
	// progress endpoint folds into components_done/components_total. All
	// no-ops (two nil checks, no allocation) unless the job's trace is
	// bus-bound.
	jobSpan := obs.FromContext(ctx)
	jobSpan.Publish(obs.Event{Kind: obs.KindComponent, Name: "plan", Total: len(pending)})

	// A non-optimal component does not stop the loop: the rest are still
	// solved, so the progress timeline reaches its planned total and later
	// re-solves find them memoized. The first such status is reported.
	var failed *Result
	for i, ci := range pending {
		res, reused, err := s.solveComponent(ctx, prob, fp, ci, comps[ci], forced)
		if err != nil {
			return nil, err
		}
		jobSpan.Publish(obs.Event{Kind: obs.KindComponent, Name: "done", Done: i + 1, Total: len(pending)})
		if failed != nil {
			continue
		}
		if reused {
			total.ComponentsReused++
		} else {
			total.Nodes += res.Nodes
			total.Iterations += res.Iterations
			total.Escalations += res.Escalations
		}
		total.Components++
		total.M = max(total.M, res.M)
		if res.Status != milp.StatusOptimal {
			failed = &Result{Status: res.Status, Nodes: total.Nodes, Iterations: total.Iterations, Components: total.Components, ComponentsReused: total.ComponentsReused}
			continue
		}
		total.Repair.Updates = append(total.Repair.Updates, res.Repair.Updates...)
	}
	if failed != nil {
		return failed, nil
	}
	return total, nil
}

// solveComponent solves component ci of the prepared problem, or serves it
// from the memo (reused). It records one "repair.component" span: sizes up
// front, solver work (or the memo hit) on completion. On a live trace the
// span is scope-tagged so every solver event the component's branch and
// bound publishes carries its component index.
func (s *MILPSolver) solveComponent(ctx context.Context, prob *Problem, fp string, ci int, sub *System, forced map[Item]float64) (res *Result, reused bool, err error) {
	if span := obs.FromContext(ctx).StartChild("repair.component"); span != nil {
		defer span.End()
		span.SetInt("component", ci)
		if span.IsLive() {
			span.PublishScope("component:" + strconv.Itoa(ci))
		}
		span.SetInt("vars", sub.N())
		span.SetInt("rows", len(sub.Rows))
		occ := 0
		for _, r := range sub.Rows {
			occ += len(r.Idx)
		}
		span.SetInt("occurrences", occ)
		ctx = obs.ContextWithSpan(ctx, span)
		defer func() {
			if err != nil {
				span.SetStr("error", err.Error())
				return
			}
			span.SetBool("memo_hit", reused)
			span.SetStr("status", res.Status.String())
			span.SetInt("nodes", res.Nodes)
			span.SetInt("lp_iterations", res.Iterations)
			span.SetInt("escalations", res.Escalations)
			span.SetFloat("big_m", res.M)
			if res.Repair != nil {
				span.SetInt("card", res.Repair.Card())
			}
		}()
	}
	key := pinKey(sub, forced)
	if m, ok := prob.lookupComponent(fp, ci, key); ok {
		return m.res, true, nil
	}
	var warm []float64
	if !s.DisableWarmStart {
		warm = prob.warmStart(fp, ci)
	}
	res, err = s.solveSystem(ctx, sub, forced, prob.Database(), warm)
	if err != nil {
		return nil, false, err
	}
	var vals []float64
	if res.Status == milp.StatusOptimal && res.Repair != nil {
		vals = solvedValues(sub, res.Repair)
	}
	prob.storeComponent(fp, ci, key, res, vals)
	return res, false, nil
}

// solveSystem compiles and solves one system, escalating the big-M bound
// when it proves binding or spuriously infeasible. A non-nil warm vector
// (the solved values of a previous solve of the same system under other
// pins) is turned into an exactness-preserving branch-and-bound cutoff
// whenever it remains feasible under the current pins and M bound.
func (s *MILPSolver) solveSystem(ctx context.Context, sys *System, forced map[Item]float64, db *relational.Database, warm []float64) (*Result, error) {
	opts := s.Options
	if ctx.Done() != nil {
		opts.Cancel = ctx.Err
	}
	// Attach the branch-and-bound's search events to the enclosing span
	// (the component solve, typically). Observational only: never part of
	// the solver fingerprint.
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
			if sol.Status == milp.StatusInfeasible && attempt < maxEscalations {
				mBound *= 32
				res.Escalations++
				continue
			}
			return res, nil
		}
		if comp.BoundBinding(sol.X) && attempt < maxEscalations {
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
