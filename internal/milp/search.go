// Best-first branch and bound.
//
// The search pops the frontier node with the smallest LP bound (ties:
// deeper first, then smaller seq), solves its LP relaxation on one reusable
// simplex state, and then commits an integral candidate, branches on the
// most fractional integer variable, or drops the node. A child popped
// right after its parent — a dive, the common case, since the down child
// ties its sibling and pops first — re-optimizes the parent's optimal
// tableau with a dual simplex instead of solving from the slack basis.
//
// Several optima can tie on the objective — card-minimal repairs often do.
// Which one the search returns is defined by a total order on candidates:
//
//   - a candidate replaces the incumbent if its objective is strictly
//     better; on ties, LP-verified ("accepted") candidates beat rounding-
//     heuristic ones, and among equals the smaller seq wins;
//   - a node is pruned when its strengthened bound is strictly worse than
//     the incumbent; a TIED node is pruned only against an accepted
//     incumbent with smaller seq, never against a heuristic one.
//
// seq is a node's position in the branch tree. The tree is not a function
// of the model alone: an LP relaxation can have several optimal vertices,
// and a dive and a cold solve of the same node can reach different ones,
// which then branch on different variables. The visit order is fixed,
// though — one sequential loop over a frontier with a total order — so the
// tree, and with it the answer, X, the node count and the iteration count,
// is a deterministic function of the model and the options, and the order
// above picks the answer among the candidates the tree holds. A different
// visit order could return a different tied optimum; the repaired
// documents' digests pin this one. Searches cut short by MaxNodes or an LP
// iteration limit report StatusIterLimit with the best candidate found so
// far.
package milp

import (
	"container/heap"
	"math"
)

// bbIncumbent is the best feasible integral solution found so far.
// accepted distinguishes LP-verified candidates from rounding-heuristic
// ones; see the package comment for how the flag steers tie-breaking.
type bbIncumbent struct {
	ok       bool
	accepted bool
	obj      float64
	seq      string
	x        []float64
}

// bbSearch is one branch-and-bound search: the model and its resolved
// options, the node scratch every expansion reuses, and the search state.
type bbSearch struct {
	m        *Model
	cs       *csrMatrix
	opt      MILPOptions
	integral bool
	cutoff   float64
	rootLB   []float64
	rootUB   []float64

	// Node scratch, allocated once per search: steady-state expansion
	// allocates nothing beyond the two child nodes (pool-recycled) and
	// their seq strings.
	s     *simplex
	lb    []float64
	ub    []float64
	x     []float64 // LP solution of the current node
	cand  []float64 // rounded-candidate scratch
	chain []*bbNode // parent-chain scratch for materialize

	// warm is the node whose LP optimum s holds, or nil. A child of it
	// re-optimizes that tableau instead of solving cold. It is forgotten
	// when the node goes back to the pool, which may hand it out again.
	warm *bbNode
	// cold solves every node from scratch; tests compare it with dives.
	cold bool

	frontier  nodeQueue
	inc       bbIncumbent
	nodes     int
	iters     int
	hitLimit  bool              // MaxNodes exhausted or an LP hit its iteration limit
	unbounded bool              // root relaxation unbounded
	prog      *bbSearchProgress // live telemetry; nil unless the trace is bus-bound
}

// strengthen rounds a subtree's LP bound up to the next attainable
// objective value when the objective is provably integral.
func (b *bbSearch) strengthen(bound float64) float64 {
	if b.integral {
		return math.Ceil(bound - 1e-6)
	}
	return bound
}

// run drains the frontier, starting from the root. It polls opt.Cancel
// once per dequeue, so cancellation is honoured at node granularity.
func (b *bbSearch) run() (*MILPResult, error) {
	b.frontier = nodeQueue{&bbNode{bound: math.Inf(-1)}}
	for len(b.frontier) > 0 {
		if b.opt.Cancel != nil {
			if err := b.opt.Cancel(); err != nil {
				return nil, err
			}
		}
		if b.nodes >= b.opt.MaxNodes {
			b.hitLimit = true
			break
		}
		node := heap.Pop(&b.frontier).(*bbNode)
		if b.pruned(node.bound, node.seq) {
			releaseNode(node) // pruned before expansion: nobody references it
			continue
		}
		b.nodes++
		down, up, improved, err := b.expand(node)
		if err != nil {
			return nil, err
		}
		if b.unbounded {
			break
		}
		kept := b.push(down)
		if b.push(up) {
			kept = true
		}
		if !kept {
			// No frontier node holds node as its parent: recycle it.
			if b.warm == node {
				b.warm = nil
			}
			releaseNode(node)
		}
		if improved {
			b.opt.Trace.EventFloat("incumbent", "objective", b.inc.obj)
		}
		if b.prog != nil {
			switch {
			case improved:
				b.publishProgress("incumbent")
			case b.nodes-b.prog.lastNodes >= bbProgressEvery:
				b.publishProgress("progress")
			}
		}
	}
	return b.result(), nil
}

// materialize reconstructs node's effective bounds into b.lb and b.ub by
// replaying branch deltas root-to-leaf (deeper deltas tighten shallower
// ones).
func (b *bbSearch) materialize(node *bbNode) {
	copy(b.lb, b.rootLB)
	copy(b.ub, b.rootUB)
	b.chain = b.chain[:0]
	for n := node; n.parent != nil; n = n.parent {
		b.chain = append(b.chain, n)
	}
	for i := len(b.chain) - 1; i >= 0; i-- {
		n := b.chain[i]
		if n.branchUB {
			b.ub[n.branchVar] = n.branchVal
		} else {
			b.lb[n.branchVar] = n.branchVal
		}
	}
}

// solve leaves node's LP relaxation solved in b.s and its bounds in b.lb
// and b.ub. A child of the node whose optimum b.s holds (a dive: the down
// child pops right after its parent) re-optimizes that tableau with the
// one bound its branch changed; every other node, and a dive the warm
// start declines, is solved cold from the slack basis.
func (b *bbSearch) solve(node *bbNode) (Status, error) {
	warm := node.parent != nil && node.parent == b.warm && !b.cold
	b.warm = nil
	if warm {
		// b.lb and b.ub still hold the parent's bounds.
		j := node.branchVar
		if node.branchUB {
			b.ub[j] = node.branchVal
		} else {
			b.lb[j] = node.branchVal
		}
		st, ok, err := b.s.resolve(j, b.lb[j], b.ub[j])
		b.iters += b.s.iters
		if ok || err != nil {
			if st == StatusOptimal {
				b.warm = node
			}
			return st, err
		}
	} else {
		b.materialize(node)
	}
	b.s.reset(b.m, b.cs, b.opt.Simplex, b.lb, b.ub)
	st, err := b.s.run()
	b.iters += b.s.iters
	if err == nil && st == StatusOptimal {
		b.warm = node
	}
	return st, err
}

// expand solves node's LP relaxation, offers any candidate it yields to
// the incumbent, and returns the children to branch into (nil = none) and
// whether the incumbent changed. An unbounded root sets b.unbounded.
func (b *bbSearch) expand(node *bbNode) (down, up *bbNode, improved bool, err error) {
	st, err := b.solve(node)
	if err != nil {
		return nil, nil, false, err
	}
	switch st {
	case StatusInfeasible:
		return nil, nil, false, nil
	case StatusUnbounded:
		// Unbounded below a bounded root cannot happen; at the root it
		// decides the whole solve. Deeper nodes die defensively.
		b.unbounded = node.depth == 0 && !b.inc.ok
		return nil, nil, false, nil
	case StatusIterLimit:
		b.hitLimit = true
		return nil, nil, false, nil
	}
	obj := b.s.objective()
	b.s.fillSolution(b.x)

	frac := mostFractional(b.m, b.x, b.opt.IntTol)
	if frac < 0 {
		// Integral within tolerance. Guard against the big-M pathology:
		// an indicator variable can sit at |y|/M below the tolerance,
		// making the rounded point infeasible. Commit the candidate only
		// when its rounding verifies; otherwise branch on the largest
		// sub-tolerance deviation (an exact split: its floor and ceil
		// differ, so both children genuinely restrict the variable).
		roundIntegersInto(b.cand, b.m, b.x, b.opt.IntTol)
		if CheckFeasible(b.m, b.cand, b.opt.IntTol*10) == nil {
			cobj := candidateObjective(b.m, b.cand, obj, b.integral)
			if !b.better(cobj, true, node.seq) {
				return nil, nil, false, nil
			}
			// Copy out of the scratch, reusing the previous incumbent's
			// array when one exists.
			b.inc = bbIncumbent{
				ok: true, accepted: true, obj: cobj, seq: node.seq,
				x: append(b.inc.x[:0], b.cand...),
			}
			return nil, nil, true, nil
		}
		frac = mostFractional(b.m, b.x, 1e-15)
		if frac < 0 {
			// Exactly integral yet rounding-infeasible cannot happen;
			// treat defensively as a numerical dead end.
			return nil, nil, false, nil
		}
	}

	// The rounding heuristic seeds an early incumbent at the root.
	if node.depth == 0 && !b.opt.DisableRounding {
		if hobj, hx, ok := roundingHeuristic(b.m, b.cs, b.opt, b.x, b.lb, b.ub); ok {
			hobj = candidateObjective(b.m, hx, hobj, b.integral)
			if b.better(hobj, false, node.seq) {
				b.inc = bbIncumbent{ok: true, accepted: false, obj: hobj, seq: node.seq, x: hx}
				improved = true
			}
		}
	}

	// Branch on the fractional variable; a child whose tightened bound
	// empties the variable's domain is dropped outright.
	xv := b.x[frac]
	if v := math.Floor(xv); v >= b.lb[frac]-1e-12 {
		down = newNode(node, frac, v, true, obj, node.seq+"0")
	}
	if v := math.Ceil(xv); v <= b.ub[frac]+1e-12 {
		up = newNode(node, frac, v, false, obj, node.seq+"1")
	}
	return down, up, improved, nil
}

// push puts a child on the frontier unless the incumbent already prunes
// it, and reports whether it was kept. Pruning here only saves work: pops
// re-check, and pruning is monotone in the incumbent order.
func (b *bbSearch) push(child *bbNode) bool {
	if child == nil {
		return false
	}
	if b.pruned(child.bound, child.seq) {
		releaseNode(child)
		return false
	}
	heap.Push(&b.frontier, child)
	return true
}

// pruned reports whether a subtree with LP bound lb and sequence rank seq
// can be discarded. Strictly worse strengthened bounds always prune
// (against the incumbent and the warm-start cutoff). A TIED bound prunes
// only against an accepted incumbent with a smaller rank: pruning a tied
// node with a smaller rank could hide the defined answer, and heuristic
// incumbents never tie-prune because the accepted solution they would
// suppress is exactly the one the tie rule must find.
func (b *bbSearch) pruned(lb float64, seq string) bool {
	sb := b.strengthen(lb)
	if sb >= b.cutoff-1e-9 {
		return true
	}
	if !b.inc.ok {
		return false
	}
	if sb > b.inc.obj+1e-9 {
		return true
	}
	if sb < b.inc.obj-1e-9 {
		return false
	}
	return b.inc.accepted && seq > b.inc.seq
}

// better reports whether a candidate (obj, accepted, seq) replaces the
// incumbent: strictly better objective wins; on ties an accepted candidate
// beats a heuristic one, and among equals the smaller sequence rank wins.
// The rule is a total order, so the final incumbent is the minimum over
// every candidate the search found.
func (b *bbSearch) better(obj float64, accepted bool, seq string) bool {
	if !b.inc.ok {
		return true
	}
	if obj < b.inc.obj-1e-9 {
		return true
	}
	if obj > b.inc.obj+1e-9 {
		return false
	}
	if accepted != b.inc.accepted {
		return accepted
	}
	return seq < b.inc.seq
}

// result assembles the MILPResult of a search that ran without error.
func (b *bbSearch) result() *MILPResult {
	res := &MILPResult{Nodes: b.nodes, Iterations: b.iters}
	if b.unbounded {
		res.Status = StatusUnbounded
		return res
	}
	res.Status = StatusInfeasible
	if b.hitLimit {
		res.Status = StatusIterLimit
	}
	if b.inc.ok {
		if !b.hitLimit {
			res.Status = StatusOptimal
		}
		res.Objective = b.inc.obj
		res.X = b.inc.x
	}
	return res
}
