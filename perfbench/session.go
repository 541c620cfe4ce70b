package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dart"
	"dart/internal/core"
	"dart/internal/metadata"
	"dart/internal/relational"
	"dart/internal/scenario"
	"dart/internal/validate"
)

// sessionShape is session-review: 5-year balance sheets (85 values, the
// three-level constraint chain) with four numeric misreads and no string
// noise.
var sessionShape = shape{years: 5, misreads: 4, pool: 512, warm: 16, digestDocs: 64, tail: 0.99}

// timedOperator forwards each review to the oracle and timestamps it: the
// first review closes the document's time to first suggestion, every later
// one closes the operator's wait since the previous verdict returned.
type timedOperator struct {
	oracle validate.Operator
	start  time.Time
	last   time.Time
	first  time.Duration
	waits  []time.Duration
	// tr, root and doc place a span around each review (nil tr: untraced).
	tr        *tracer
	root, doc int
}

// Review implements validate.Operator.
func (o *timedOperator) Review(u core.Update) (validate.Decision, error) {
	now := time.Now()
	if o.last.IsZero() {
		o.first = now.Sub(o.start)
	} else {
		o.waits = append(o.waits, now.Sub(o.last))
	}
	id := o.tr.begin("bench.review", o.root, o.doc)
	d, err := o.oracle.Review(u)
	o.tr.end(id)
	o.last = time.Now()
	return d, err
}

// sessionState is a set-up session-review workload.
type sessionState struct {
	md     *metadata.Metadata
	p      *dart.Pipeline
	solver core.Solver
	inputs []input
}

// session runs the validation loop on an acquired database.
func (st *sessionState) session(ctx context.Context, db *relational.Database, prob *core.Problem, solver core.Solver, op validate.Operator) (*validate.Outcome, error) {
	s := &validate.Session{
		DB:                 db,
		Constraints:        st.md.Constraints(),
		Solver:             solver,
		Operator:           op,
		Problem:            prob,
		Context:            ctx,
		ReviewPerIteration: 1,
	}
	return s.Run()
}

// process runs one document untraced: Pipeline.AcquireContext, then the
// validation session.
func (st *sessionState) process(ctx context.Context, src string, op *timedOperator) (*validate.Outcome, error) {
	acq, err := st.p.AcquireContext(ctx, src)
	if err != nil {
		return nil, err
	}
	return st.session(ctx, acq.Database, nil, st.solver, op)
}

// processTraced runs one document with a span around every layer call:
// the acquisition layers, core.Prepare, and the session, whose solves and
// reviews get spans through the solver and operator wrappers.
func (st *sessionState) processTraced(ctx context.Context, tr *tracer, doc int, src string, op *timedOperator, c *layerCounts) (*validate.Outcome, error) {
	root := tr.begin("bench.doc", 0, doc)
	defer tr.end(root)
	db, _, err := acquireTraced(tr, root, doc, st.md, src, c)
	if err != nil {
		return nil, err
	}
	prob, err := prepareTraced(tr, root, doc, db, st.md.Constraints(), c)
	if err != nil {
		return nil, err
	}
	id := tr.begin("validate.session", root, doc)
	op.tr, op.root, op.doc = tr, id, doc
	out, err := st.session(ctx, db, prob, &tracedSolver{Solver: st.solver, tr: tr, root: id, doc: doc, c: c}, op)
	tr.end(id)
	if err == nil {
		c.comps += len(prob.Components())
	}
	return out, err
}

func newSessionState(seed int64) (*sessionState, error) {
	md, err := parseMetadata(scenario.BalanceSheetSource())
	if err != nil {
		return nil, err
	}
	sh := sessionShape
	st := &sessionState{
		md:     md,
		p:      &dart.Pipeline{Metadata: md},
		solver: dart.NewMILPSolver(),
		inputs: balanceInputs(rand.New(rand.NewSource(seed)), sh.pool, sh.years, sh.misreads),
	}
	for i := 0; i < sh.warm; i++ {
		in := st.inputs[i]
		op := &timedOperator{oracle: &validate.OracleOperator{Truth: in.truth}, start: time.Now()}
		if _, err := st.process(context.Background(), in.src, op); err != nil {
			return nil, fmt.Errorf("warm-up document %d: %w", i, err)
		}
	}
	return st, nil
}

// runSession runs session-review: one caller in a closed loop acquiring a
// document and validating its repair with an oracle operator that reviews
// one suggestion per iteration.
func runSession(cfg config) (*outcome, error) {
	var st *sessionState
	setupS, err := repeatSetup(func() (err error) {
		st, err = newSessionState(cfg.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	sh := sessionShape
	ctx := context.Background()
	o := &outcome{metrics: map[string]float64{}}
	log := newRepairLog(sh.digestDocs)
	var firsts, waits []float64
	var recovered, examined, rejected, iterations int
	// run processes document i with process and files its outputs; the
	// operator-facing latencies come from untraced runs only.
	run := func(i int, traced bool, process func(in input, op *timedOperator) (*validate.Outcome, error)) (time.Duration, bool) {
		in := st.inputs[i%sh.pool]
		op := &timedOperator{oracle: &validate.OracleOperator{Truth: in.truth}}
		op.start = time.Now()
		out, err := process(in, op)
		d := time.Since(op.start)
		o.attempted++
		if err == nil && !log.seen(i%sh.pool) {
			err = verify(out.Repaired, st.md.Constraints())
		}
		if err == nil && !log.record(i%sh.pool, repairKey(out.Final)) {
			err = fmt.Errorf("repair differs from an earlier run of the same document")
		}
		if err != nil {
			o.failed++
			o.problem("document %d: %v", i, err)
			return d, false
		}
		if sameDB(out.Repaired, in.truth) {
			recovered++
		}
		if traced {
			return d, true
		}
		examined += out.Examined
		rejected += out.Rejected
		iterations += out.Iterations
		if !op.last.IsZero() {
			firsts = append(firsts, ms(op.first))
		}
		for _, w := range op.waits {
			waits = append(waits, float64(w.Nanoseconds())/1e3)
		}
		return d, true
	}
	untraced := func(i int) (time.Duration, bool) {
		return run(i, false, func(in input, op *timedOperator) (*validate.Outcome, error) {
			return st.process(ctx, in.src, op)
		})
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))

	var docs int
	if !cfg.trace {
		lat := closedLoop(budget, sh.digestDocs, untraced)
		docs = len(lat)
		latencyMetrics(o.metrics, lat, sh.tail)
		o.metrics["setup_s"] = setupS
		o.metrics["heap_mb"] = heapMiB()
		runtime.KeepAlive(st)
		o.note("%d documents (%d distinct, %d-year balance sheets); doc_tail_ms is p%g", docs, min(docs, sh.pool), sh.years, 100*sh.tail)
		o.note("first_suggestion_p50_ms %.4g ms over %d documents", percentile(firsts, 0.5), len(firsts))
		o.note("decision_p50_us %.4g us, decision_p90_us %.4g us over %d decisions", percentile(waits, 0.5), percentile(waits, 0.9), len(waits))
	} else {
		tr := newTracer()
		var c layerCounts
		var busy time.Duration
		var allocs, gcs uint64
		docs, busy, allocs, gcs = pairedLoop(budget/2, sh.digestDocs, untraced, func(i int) (time.Duration, bool) {
			return run(i, true, func(in input, op *timedOperator) (*validate.Outcome, error) {
				return st.processTraced(ctx, tr, i, in.src, op, &c)
			})
		})
		c.metrics(o.metrics, tr)
		runtimeMetrics(o.metrics, tr, docs, busy, allocs, gcs)
		m := o.metrics
		m["validate.first_suggestion_p50_ms"] = percentile(firsts, 0.5)
		m["validate.decision_p50_us"] = percentile(waits, 0.5)
		m["validate.decision_p90_us"] = percentile(waits, 0.9)
		m["validate.decisions_per_doc"] = float64(examined) / float64(docs)
		m["validate.iterations_per_doc"] = float64(iterations) / float64(docs)
		m["repair.rejected_ratio"] = ratio(float64(rejected), float64(examined))
		// Finishing a session (row-by-row verification, overlay
		// materialization) runs after its last solve or review returns.
		var finish time.Duration
		last := tr.lastChildEnd()
		for _, s := range tr.spansNamed("validate.session") {
			if e, ok := last[s.ID]; ok {
				finish += s.End - e
			}
		}
		m["validate.finish_us_per_doc"] = us(finish, docs)
		o.note("%d documents, each run untraced and traced", docs)
		if err := writeSpans(cfg, tr, o); err != nil {
			return nil, err
		}
	}
	share := float64(recovered) / float64(max(o.attempted, 1))
	if cfg.trace {
		o.metrics["validate.truth_recovered_ratio"] = share
	}
	o.note("sessions whose repaired database equals the ground truth: %.4f", share)
	digest, ok := log.digest()
	if !ok {
		o.problem("digest prefix of %d documents not processed", sh.digestDocs)
	}
	o.digest = digest
	return o, nil
}
