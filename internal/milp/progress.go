// Live search-progress telemetry.
//
// When the solve's Trace span is bound to a telemetry bus (obs.Span.Live),
// branch and bound publishes a timeline of solver events through it:
//
//	incumbent  a new best integral solution was committed
//	progress   periodic checkpoint (every bbProgressEvery nodes)
//	done       the search finished, with its terminal status
//
// Each event carries the incumbent objective, the global lower bound, the
// relative optimality gap, the node count, and the node throughput. The
// lower bound is the frontier minimum: events are published between node
// expansions, when every open subtree sits on the frontier. The published
// gap is monotone non-increasing over the event stream: it is clamped
// against the last published value, since an improving incumbent shrinks
// the normalizing denominator.
//
// The whole subsystem is gated on one IsLive check at solve start: a
// solve without a live trace allocates nothing here and pays zero
// per-node cost (bbSearch.prog stays nil).
package milp

import (
	"math"
	"time"

	"dart/internal/obs"
)

// bbProgressEvery is the node interval between periodic progress events.
const bbProgressEvery = 64

// bbSearchProgress is the telemetry state of one live solve.
type bbSearchProgress struct {
	start     time.Time
	lastGap   float64 // last published gap; later events never exceed it
	lastNodes int     // node count at the last periodic publish
}

// newBBSearchProgress arms telemetry for one solve.
func newBBSearchProgress() *bbSearchProgress {
	return &bbSearchProgress{start: time.Now(), lastGap: 1}
}

// rate is the node throughput since the solve started.
func (pr *bbSearchProgress) rate(nodes int) float64 {
	if el := time.Since(pr.start).Seconds(); el > 0 {
		return float64(nodes) / el
	}
	return 0
}

// lowerBound is the strengthened global lower bound: the minimum bound on
// the frontier. +Inf means the search space is exhausted.
func (b *bbSearch) lowerBound() float64 {
	if len(b.frontier) == 0 {
		return math.Inf(1)
	}
	return b.strengthen(b.frontier[0].bound) // heap root = minimum bound
}

// publishProgress emits one "incumbent" or "progress" event. The gap is
// relative — (incumbent − lb) / max(|incumbent|, 1) — clamped into [0, 1]
// and against the last published value, so consumers see a monotone
// non-increasing convergence signal.
func (b *bbSearch) publishProgress(name string) {
	ev := obs.Event{Kind: obs.KindSolver, Name: name, Nodes: int64(b.nodes)}
	lb := b.lowerBound()
	gap := 1.0
	if b.inc.ok {
		ev.Incumbent = b.inc.obj
		//dartvet:allow floatcmp -- telemetry clamp, not a pruning decision; exactness only affects the displayed gap
		if math.IsInf(lb, 1) || lb > b.inc.obj {
			// Exhausted (or only worse subtrees remain): the incumbent is
			// the proven optimum.
			lb = b.inc.obj
		}
		gap = (b.inc.obj - lb) / math.Max(math.Abs(b.inc.obj), 1)
	}
	if !math.IsInf(lb, 0) {
		ev.Bound = lb
	}
	if gap < 0 {
		gap = 0
	}
	//dartvet:allow floatcmp -- monotonicity clamp against the last published gap; fuzzing would let the gap tick upward
	if gap > b.prog.lastGap {
		gap = b.prog.lastGap
	}
	b.prog.lastGap = gap
	ev.Gap = gap
	ev.NodesPerSec = b.prog.rate(b.nodes)
	b.prog.lastNodes = b.nodes
	b.opt.Trace.Publish(ev)
}

// publishDone emits the terminal solver event. A proven-optimal or
// infeasible search reports gap 0; an interrupted one (node/iteration
// limit) reports the last clamped gap.
func (b *bbSearch) publishDone(res *MILPResult) {
	gap := b.prog.lastGap
	if res.Status == StatusOptimal || res.Status == StatusInfeasible || res.Status == StatusUnbounded {
		gap = 0
	}
	ev := obs.Event{
		Kind:        obs.KindSolver,
		Name:        "done",
		State:       res.Status.String(),
		Gap:         gap,
		Nodes:       int64(res.Nodes),
		NodesPerSec: b.prog.rate(b.nodes),
	}
	if b.inc.ok {
		ev.Incumbent = b.inc.obj
		ev.Bound = b.inc.obj - gap*math.Max(math.Abs(b.inc.obj), 1)
	}
	b.opt.Trace.Publish(ev)
}
