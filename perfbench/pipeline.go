package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"dart"
	"dart/internal/aggrcons"
	"dart/internal/convert"
	"dart/internal/core"
	"dart/internal/metadata"
	"dart/internal/relational"
	"dart/internal/scenario"
)

// shape sizes one in-process workload.
type shape struct {
	years, misreads int
	stringRate      float64
	// pool is the number of distinct documents generated at set-up; a run
	// cycles through them in order.
	pool int
	// warm is the number of documents processed during set-up.
	warm int
	// digestDocs is the prefix of the document sequence the digest covers;
	// every run processes at least that many documents.
	digestDocs int
	// tail is the percentile doc_tail_ms reports: the highest one the run's
	// sample count supports with at least ten samples beyond it.
	tail float64
}

var (
	// smallShape is pipeline-small: 2-year cash budgets with one numeric
	// misread and 5% string noise (the E10 documents).
	smallShape = shape{years: 2, misreads: 1, stringRate: 0.05, pool: 1024, warm: 32, digestDocs: 256, tail: 0.99}
	// largeShape is repair-large: 50-year cash budgets (500 values) with
	// four numeric misreads.
	largeShape = shape{years: 50, misreads: 4, pool: 64, warm: 2, digestDocs: 8, tail: 0.90}
)

// closedLoop is one caller in a closed loop: it calls op for inputs 0, 1,
// 2, ... until the measured time reaches budget and at least minOps calls
// ran. op returns the latency it measured, so output checks stay off the
// clock, and whether the call succeeded; a failed call counts as missing
// every latency percentile. It returns the latencies in ms, in order.
func closedLoop(budget time.Duration, minOps int, op func(i int) (time.Duration, bool)) []float64 {
	var lat []float64
	var busy time.Duration
	for i := 0; busy < budget || i < minOps; i++ {
		d, ok := op(i)
		busy += d
		if ok {
			lat = append(lat, ms(d))
		} else {
			lat = append(lat, math.Inf(1))
		}
	}
	return lat
}

// pairedLoop is the traced run's loop: it runs each input twice, untraced
// and traced, alternating which goes first so neither mode always meets
// the warmer caches, until the untraced runs have measured budget and at
// least minOps inputs ran. It returns the input count, the untraced time,
// the bytes the untraced runs allocated, and the GC cycles of the loop.
func pairedLoop(budget time.Duration, minOps int, untraced, traced func(i int) (time.Duration, bool)) (n int, busy time.Duration, allocBytes, gcs uint64) {
	_, gc0 := memCounters()
	for ; busy < budget || n < minOps; n++ {
		if n%2 == 1 {
			traced(n)
		}
		a0, _ := memCounters()
		d, _ := untraced(n)
		a1, _ := memCounters()
		busy += d
		allocBytes += a1 - a0
		if n%2 == 0 {
			traced(n)
		}
	}
	_, gc1 := memCounters()
	return n, busy, allocBytes, gc1 - gc0
}

// runtimeMetrics sets the traced run's overhead and Go runtime metrics.
func runtimeMetrics(m map[string]float64, tr *tracer, n int, busy time.Duration, allocBytes, gcs uint64) {
	m["obs.trace_overhead_share"] = ratio(float64(tr.total()-busy), float64(busy))
	m["runtime.alloc_kb_per_doc"] = float64(allocBytes) / 1024 / float64(n)
	m["runtime.gc_cycles"] = float64(gcs) * 1000 / float64(2*n)
}

// latencyMetrics sets the end-to-end throughput and latency metrics of a
// closed loop from its latencies in order. Throughput is the median over
// ten consecutive windows of the run, and the tail percentile the median
// over the windows the sample can fill with ten samples beyond it, so a
// burst of interference from outside the program moves neither.
func latencyMetrics(m map[string]float64, lat []float64, tail float64) {
	m["docs_per_s"] = median(windowed(lat, 10, func(w []float64) float64 {
		total := 0.0
		for _, x := range w {
			total += x
		}
		return float64(len(w)) * 1000 / total
	}))
	perWindow := int(math.Ceil(10 / (1 - tail)))
	m["doc_tail_ms"] = median(windowed(lat, len(lat)/perWindow, func(w []float64) float64 {
		return percentile(w, tail)
	}))
	m["doc_p50_ms"] = percentile(lat, 0.5)
}

// windowed splits xs into k (at least 1, at most len(xs)) consecutive
// windows of near-equal size and returns f of a copy of each.
func windowed(xs []float64, k int, f func(w []float64) float64) []float64 {
	k = max(1, min(k, len(xs)))
	out := make([]float64, k)
	for i := range out {
		out[i] = f(append([]float64(nil), xs[i*len(xs)/k:(i+1)*len(xs)/k]...))
	}
	return out
}

// layerCounts accumulates the work counts the traced run reads off the
// layers' return values.
type layerCounts struct {
	docs                             int
	skipped, stringRepairs, rowErrs  int
	violations, vars, rows, comps    int
	solves, nodes, lpIters, escalate int
	compsSolved, compsReused         int
}

// solved adds one solver result.
func (c *layerCounts) solved(r *core.Result) {
	c.solves++
	c.nodes += r.Nodes
	c.lpIters += r.Iterations
	c.escalate += r.Escalations
	c.compsSolved += r.Components
	c.compsReused += r.ComponentsReused
}

// metrics sets the per-layer metrics the acquisition and repair layers
// share between the pipeline and session workloads.
func (c *layerCounts) metrics(m map[string]float64, tr *tracer) {
	self, calls := tr.selfTimes()
	n := float64(max(c.docs, 1))
	m["convert.us_per_doc"] = us(self["convert.to_html"], c.docs)
	m["wrapper.us_per_doc"] = us(self["wrapper.extract"], c.docs)
	m["wrapper.skipped_rows"] = float64(c.skipped) / n
	m["wrapper.string_repairs"] = float64(c.stringRepairs) / n
	m["dbgen.us_per_doc"] = us(self["dbgen.generate"], c.docs)
	m["dbgen.row_errors"] = float64(c.rowErrs) / n
	m["aggrcons.check_us_per_doc"] = us(self["aggrcons.check"], c.docs)
	m["aggrcons.violations_per_doc"] = float64(c.violations) / n
	m["core.prepare_us_per_doc"] = us(self["core.prepare"], c.docs)
	m["core.vars_per_doc"] = float64(c.vars) / n
	m["core.rows_per_doc"] = float64(c.rows) / n
	m["core.components_per_doc"] = float64(c.comps) / n
	m["core.solve_us_per_call"] = us(self["core.solve"], calls["core.solve"])
	m["core.components_reused_ratio"] = ratio(float64(c.compsReused), float64(c.compsSolved))
	m["milp.nodes_per_solve"] = ratio(float64(c.nodes), float64(c.solves))
	m["milp.lp_iters_per_solve"] = ratio(float64(c.lpIters), float64(c.solves))
	m["milp.big_m_escalations"] = float64(c.escalate)
	m["core.verify_us_per_doc"] = us(self["core.verify"], c.docs)
}

// acquireTraced runs the acquisition module's layers in the order
// Pipeline.AcquireContext calls them, with a span around each call.
func acquireTraced(tr *tracer, root, doc int, md *metadata.Metadata, src string, c *layerCounts) (*relational.Database, []aggrcons.Violation, error) {
	id := tr.begin("convert.to_html", root, doc)
	html, err := convert.ToHTML(src, convert.Detect(src))
	tr.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("format conversion: %w", err)
	}
	id = tr.begin("wrapper.extract", root, doc)
	instances, skipped, err := md.NewWrapper().Extract(html)
	tr.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("extraction: %w", err)
	}
	id = tr.begin("dbgen.generate", root, doc)
	db, rowErrs, err := md.NewGenerator().Generate(instances)
	tr.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("database generation: %w", err)
	}
	id = tr.begin("aggrcons.check", root, doc)
	viols, err := aggrcons.Check(db, md.Constraints(), 1e-9)
	tr.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("consistency check: %w", err)
	}
	c.docs++
	c.skipped += len(skipped)
	c.rowErrs += len(rowErrs)
	c.violations += len(viols)
	for _, in := range instances {
		c.stringRepairs += len(in.Corrections())
	}
	return db, viols, nil
}

// prepareTraced grounds the constraints on db under a span.
func prepareTraced(tr *tracer, root, doc int, db *relational.Database, acs []*aggrcons.Constraint, c *layerCounts) (*core.Problem, error) {
	id := tr.begin("core.prepare", root, doc)
	prob, err := core.Prepare(db, acs)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	c.vars += prob.N()
	c.rows += len(prob.System().Rows)
	return prob, nil
}

// tracedSolver forwards SolveProblem to the real solver under a span and
// counts the solver's work.
type tracedSolver struct {
	core.Solver
	tr        *tracer
	root, doc int
	c         *layerCounts
}

// SolveProblem implements core.Solver.
func (s *tracedSolver) SolveProblem(ctx context.Context, prob *core.Problem, forced map[core.Item]float64) (*core.Result, error) {
	id := s.tr.begin("core.solve", s.root, s.doc)
	r, err := s.Solver.SolveProblem(ctx, prob, forced)
	s.tr.end(id)
	if r != nil {
		s.c.solved(r)
	}
	return r, err
}

// pipelineState is a set-up in-process workload.
type pipelineState struct {
	md     *metadata.Metadata
	p      *dart.Pipeline
	solver core.Solver
	inputs []input
}

func newPipelineState(seed int64, sh shape) (*pipelineState, error) {
	md, err := parseMetadata(scenario.CashBudgetSource())
	if err != nil {
		return nil, err
	}
	st := &pipelineState{
		md:     md,
		p:      &dart.Pipeline{Metadata: md},
		solver: dart.NewMILPSolver(),
		inputs: budgetInputs(rand.New(rand.NewSource(seed)), sh.pool, sh.years, sh.misreads, sh.stringRate),
	}
	for i := 0; i < sh.warm; i++ {
		if _, err := st.p.ProcessContext(context.Background(), st.inputs[i].src); err != nil {
			return nil, fmt.Errorf("warm-up document %d: %w", i, err)
		}
	}
	return st, nil
}

// processTraced runs the pipeline on one document by calling each layer's
// public function in the order Pipeline.ProcessContext does, with a span
// around each call.
func (st *pipelineState) processTraced(ctx context.Context, tr *tracer, doc int, src string, c *layerCounts) (*dart.Repair, *relational.Database, error) {
	root := tr.begin("bench.doc", 0, doc)
	defer tr.end(root)
	acs := st.md.Constraints()
	db, viols, err := acquireTraced(tr, root, doc, st.md, src, c)
	if err != nil || len(viols) == 0 {
		return &dart.Repair{}, db, err
	}
	prob, err := prepareTraced(tr, root, doc, db, acs, c)
	if err != nil {
		return nil, nil, err
	}
	r, err := (&tracedSolver{Solver: st.solver, tr: tr, root: root, doc: doc, c: c}).SolveProblem(ctx, prob, nil)
	if err != nil {
		return nil, nil, err
	}
	if r.Repair == nil {
		return nil, nil, fmt.Errorf("no repair found (status %v)", r.Status)
	}
	c.comps += len(prob.Components())
	id := tr.begin("core.verify", root, doc)
	repaired, err := core.VerifyRepairs(db, acs, r.Repair, 1e-6)
	tr.end(id)
	return r.Repair, repaired, err
}

// runPipeline runs pipeline-small or repair-large: one caller in a closed
// loop calling Pipeline.ProcessContext with no operator.
func runPipeline(cfg config, sh shape) (*outcome, error) {
	var st *pipelineState
	setupS, err := repeatSetup(func() (err error) {
		st, err = newPipelineState(cfg.seed, sh)
		return err
	})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	o := &outcome{metrics: map[string]float64{}}
	acs := st.md.Constraints()
	log := newRepairLog(sh.digestDocs)
	// check files one processed document's outputs.
	check := func(i int, repair *dart.Repair, repaired *relational.Database, err error) bool {
		o.attempted++
		// A document seen before must get the repair it got then, which
		// was verified; a new one is verified against the constraints.
		if err == nil && !log.seen(i%sh.pool) {
			err = verify(repaired, acs)
		}
		if err == nil && !log.record(i%sh.pool, repairKey(repair)) {
			err = fmt.Errorf("repair differs from an earlier run of the same document")
		}
		if err != nil {
			o.failed++
			o.problem("document %d: %v", i, err)
		}
		return err == nil
	}
	untraced := func(i int) (time.Duration, bool) {
		start := time.Now()
		res, err := st.p.ProcessContext(ctx, st.inputs[i%sh.pool].src)
		d := time.Since(start)
		if err != nil {
			return d, check(i, nil, nil, err)
		}
		return d, check(i, res.Repair, res.Repaired, nil)
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		lat := closedLoop(budget, sh.digestDocs, untraced)
		latencyMetrics(o.metrics, lat, sh.tail)
		o.metrics["setup_s"] = setupS
		o.metrics["heap_mb"] = heapMiB()
		runtime.KeepAlive(st)
		o.note("%d documents (%d distinct, %d-year budgets); doc_tail_ms is p%g", len(lat), min(len(lat), sh.pool), sh.years, 100*sh.tail)
	} else {
		tr := newTracer()
		var c layerCounts
		n, busy, allocs, gcs := pairedLoop(budget/2, sh.digestDocs, untraced, func(i int) (time.Duration, bool) {
			start := time.Now()
			repair, repaired, err := st.processTraced(ctx, tr, i, st.inputs[i%sh.pool].src, &c)
			return time.Since(start), check(i, repair, repaired, err)
		})
		c.metrics(o.metrics, tr)
		runtimeMetrics(o.metrics, tr, n, busy, allocs, gcs)
		o.note("%d documents, each run untraced and traced", n)
		if err := writeSpans(cfg, tr, o); err != nil {
			return nil, err
		}
	}
	digest, ok := log.digest()
	if !ok {
		o.problem("digest prefix of %d documents not processed", sh.digestDocs)
	}
	o.digest = digest
	return o, nil
}
