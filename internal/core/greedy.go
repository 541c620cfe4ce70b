package core

import (
	"context"
	"math"
	"sort"

	"dart/internal/milp"
	"dart/internal/relational"
)

// greedyPick selects which item of a violated row a greedy heuristic blames.
// convergeTol decides when a solved-for value already equals the current
// one: integer targets are rounded, so anything below it is float noise.
const convergeTol = 1e-9

// greedyMaxIters caps the repair iterations of the greedy baselines.
const greedyMaxIters = 200

type greedyPick int

const (
	// pickRarest blames the item occurring in the fewest rows of the whole
	// system (prefer touching "local" detail values).
	pickRarest greedyPick = iota
	// pickCommonest blames the item occurring in the most rows (prefer
	// touching shared aggregate/derived values).
	pickCommonest
)

// greedySolve is the shared engine of the greedy baselines: repeatedly take
// the first violated row and overwrite one of its items with the value that
// satisfies the row exactly, until the system is consistent or the
// iteration budget is spent. The result is a valid repair when it
// converges, but carries no minimality guarantee — that contrast against
// the MILP solver is experiment E6.
func greedySolve(prob *Problem, forced map[Item]float64, pick greedyPick) (*Result, error) {
	sys, db := prob.System(), prob.Database()
	vals := append([]float64(nil), sys.V...)
	frozen := make([]bool, sys.N())
	for it, v := range forced {
		if i := sys.IndexOf(it); i >= 0 {
			vals[i] = v
			frozen[i] = true
		}
	}
	occ := prob.Occurrences()
	res := &Result{}
	prevPick := -1 // avoid immediate ping-pong on items shared by two rows

	for iter := 0; iter < greedyMaxIters; iter++ {
		violated := violatedRows(sys, vals, 1e-6)
		if len(violated) == 0 {
			res.Status = milp.StatusOptimal
			res.Repair = repairFromValues(db, sys, vals)
			res.Card = res.Repair.Card()
			res.Iterations = iter
			if err := prob.VerifyRepair(res.Repair, 1e-6); err != nil {
				return nil, err
			}
			return res, nil
		}
		row := sys.Rows[violated[0]]
		// Candidate items of the row, ordered by the pick policy.
		items := make([]int, 0, len(row.Idx))
		for _, idx := range row.Idx {
			if !frozen[idx] {
				items = append(items, idx)
			}
		}
		if len(items) == 0 {
			break // row unfixable under the forced values
		}
		if len(items) > 1 && prevPick >= 0 {
			filtered := items[:0]
			for _, idx := range items {
				if idx != prevPick {
					filtered = append(filtered, idx)
				}
			}
			if len(filtered) > 0 {
				items = filtered
			}
		}
		sort.Slice(items, func(a, b int) bool {
			oa, ob := occ[items[a]], occ[items[b]]
			if oa != ob {
				if pick == pickRarest {
					return oa < ob
				}
				return oa > ob
			}
			if pick == pickRarest {
				return items[a] < items[b]
			}
			// Commonest policy breaks ties toward later items: derived
			// rows follow the values they are computed from, so cascades
			// settle downstream instead of oscillating.
			return items[a] > items[b]
		})
		idx := items[0]
		// Solve the row for vals[idx].
		rest, coeff := 0.0, 0.0
		for j, i := range row.Idx {
			if i == idx {
				coeff = row.Coeffs[j]
			} else {
				rest += row.Coeffs[j] * vals[i]
			}
		}
		target := (row.RHS - rest) / coeff
		if sys.Domains[idx] == relational.DomainInt {
			target = math.Round(target)
		}
		if math.Abs(target-vals[idx]) <= convergeTol {
			// The exact solution is already the current value (an
			// inequality row): nudge to the boundary side instead.
			break
		}
		vals[idx] = target
		prevPick = idx
		res.Iterations = iter + 1
	}
	res.Status = milp.StatusIterLimit
	return res, nil
}

// GreedyLocalSolver is a heuristic baseline that fixes each violated ground
// constraint by overwriting its least-shared (most local) value.
type GreedyLocalSolver struct{}

// Name implements Solver.
func (s *GreedyLocalSolver) Name() string { return "greedy-local" }

// SolveProblem implements Solver on the prepared system.
func (s *GreedyLocalSolver) SolveProblem(ctx context.Context, prob *Problem, forced map[Item]float64) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return greedySolve(prob, forced, pickRarest)
}

// GreedyAggregateSolver is a heuristic baseline that fixes each violated
// ground constraint by overwriting its most-shared value — which for
// balance-sheet style constraints means recomputing aggregate and derived
// items from the detail items, the strategy a spreadsheet user would apply.
type GreedyAggregateSolver struct{}

// Name implements Solver.
func (s *GreedyAggregateSolver) Name() string { return "greedy-aggregate" }

// SolveProblem implements Solver on the prepared system.
func (s *GreedyAggregateSolver) SolveProblem(ctx context.Context, prob *Problem, forced map[Item]float64) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return greedySolve(prob, forced, pickCommonest)
}
