package service

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dart/internal/obs"
	"dart/internal/repair"
	"dart/internal/store"
)

// Version identifies the build in dart_build_info; release builds override
// it via -ldflags "-X dart/internal/service.Version=v1.2.3".
var Version = "dev"

// histBuckets are the latency histogram upper bounds in seconds,
// exponential from 0.5ms to 60s.
var histBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// histogram is a fixed-bucket latency histogram. counts[i] holds the
// observations that fell into bucket i alone (counts[len(histBuckets)] is
// the +Inf overflow); the cumulative totals the Prometheus text format wants
// are accumulated at write time. Storing per-bucket counts makes observe
// O(log buckets) — one binary search and one increment — instead of
// incrementing every bucket at or above the observation.
type histogram struct {
	counts []uint64 // per-bucket, parallel to histBuckets plus +Inf overflow
	sum    float64
	count  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(histBuckets)+1)}
}

func (h *histogram) observe(seconds float64) {
	// First bucket whose upper bound is >= seconds: exactly Prometheus's
	// "le" semantics. SearchFloat64s returns len(histBuckets) when the
	// observation exceeds every bound — the +Inf overflow slot.
	h.counts[sort.SearchFloat64s(histBuckets, seconds)]++
	h.sum += seconds
	h.count++
}

// write emits the histogram in Prometheus cumulative-bucket text format,
// accumulating the per-bucket counts into running totals.
func (h *histogram) write(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, ub := range histBuckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep,
			strconv.FormatFloat(ub, 'g', -1, 64), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.count)
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.count)
	} else {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
		fmt.Fprintf(w, "%s_count %d\n", name, h.count)
	}
}

// Metrics is the service's in-process metrics registry: job counters by
// terminal state, per-stage pipeline latency histograms (folded from each
// job's spans), whole-job latency, queue depth, retries, violations
// found, and repair cardinality. Exposed by GET /metrics in Prometheus text
// format.
type Metrics struct {
	mu             sync.Mutex
	submitted      uint64
	finished       map[JobState]uint64
	retries        uint64
	violations     uint64
	updates        uint64
	stages         map[string]*histogram
	jobSeconds     *histogram
	queueWait      *histogram
	prepareSeconds *histogram
	resolveSeconds *histogram
	compSolved     uint64
	compReused     uint64
	bbNodes        uint64
	specRejections uint64
	cacheHits      uint64
	cacheMisses    uint64
	queueDepth     func() int
	workerCount    int
	storeStats     func() store.Stats
	storeErrors    uint64
	recRequeued    uint64
	recCompleted   uint64
	recDropped     uint64
	// Validation-session repair activity: decisions by outcome state, the
	// proposal→decision latency, and a live open-suggestions sampler.
	repairDecisions map[repair.Kind]uint64
	decisionSeconds *histogram
	openSuggestions func() int
	// Telemetry-loss samplers: spans the tracer discarded (ring eviction,
	// post-seal ends) and live events dropped per slow subscriber.
	droppedSpans  func() uint64
	droppedEvents func() map[string]uint64

	// Runtime sampling hooks, overridden by the golden exposition test so
	// /metrics output is reproducible; production uses the defaults.
	start      time.Time
	now        func() time.Time
	goroutines func() int
	heapBytes  func() uint64
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		finished:        make(map[JobState]uint64),
		stages:          make(map[string]*histogram),
		jobSeconds:      newHistogram(),
		queueWait:       newHistogram(),
		prepareSeconds:  newHistogram(),
		resolveSeconds:  newHistogram(),
		repairDecisions: make(map[repair.Kind]uint64),
		decisionSeconds: newHistogram(),
		start:           time.Now(),
		now:             time.Now,
		goroutines:      runtime.NumGoroutine,
		heapBytes: func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		},
	}
}

// FoldSpans records the stage latencies of one job from its ended spans:
// "stage.prepare" and "stage.resolve" (the repair module's one-time problem
// preparation and per-iteration re-solves) feed their own histogram
// families, so the generic per-stage family keeps one observation per job
// stage; any other "stage.<x>" span feeds dartd_stage_seconds{stage="x"};
// every other span is ignored.
func (m *Metrics) FoldSpans(recs []*obs.SpanRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rec := range recs {
		stage, ok := strings.CutPrefix(rec.Name, "stage.")
		if !ok {
			continue
		}
		seconds := time.Duration(rec.DurationNS).Seconds()
		switch stage {
		case "prepare":
			m.prepareSeconds.observe(seconds)
		case "resolve":
			m.resolveSeconds.observe(seconds)
		default:
			h := m.stages[stage]
			if h == nil {
				h = newHistogram()
				m.stages[stage] = h
			}
			h.observe(seconds)
		}
	}
}

// Components counts component-level solver work of one finished pipeline
// run: solved components paid a solver call, reused ones were served from
// the prepared problem's memo.
func (m *Metrics) Components(solved, reused int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if solved > 0 {
		m.compSolved += uint64(solved)
	}
	if reused > 0 {
		m.compReused += uint64(reused)
	}
}

// BBNodes counts branch-and-bound nodes explored by one finished pipeline
// run.
func (m *Metrics) BBNodes(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n > 0 {
		m.bbNodes += uint64(n)
	}
}

// CacheHit counts one job served from the result cache.
func (m *Metrics) CacheHit() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cacheHits++
}

// CacheMiss counts one job that had to run the pipeline.
func (m *Metrics) CacheMiss() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cacheMisses++
}

// JobSubmitted counts one accepted submission.
func (m *Metrics) JobSubmitted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submitted++
}

// JobFinished counts one terminal job and its latency and repair outcome:
// the violations its acquisition found and the updates of its repair.
func (m *Metrics) JobFinished(state JobState, d time.Duration, violations, updates int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished[state]++
	m.jobSeconds.observe(d.Seconds())
	m.violations += uint64(violations)
	m.updates += uint64(updates)
}

// SpecRejected counts one submission rejected by admission-time spec
// vetting.
func (m *Metrics) SpecRejected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.specRejections++
}

// QueueWait records how long a job waited between submission and its first
// dequeue by a worker.
func (m *Metrics) QueueWait(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueWait.observe(d.Seconds())
}

// Retry counts one retried attempt.
func (m *Metrics) Retry() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retries++
}

// RepairEvent counts one suggestion-ledger transition. Decisions (accepts,
// rejects) additionally observe the proposal→decision latency; proposals
// themselves are not decisions and only show up through the open gauge.
func (m *Metrics) RepairEvent(ev repair.Event) {
	if ev.Kind == repair.KindProposed {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.repairDecisions[ev.Kind]++
	if ev.Kind == repair.KindAccepted || ev.Kind == repair.KindRejected {
		m.decisionSeconds.observe(float64(ev.Suggestion.DecidedAt-ev.Suggestion.ProposedAt) / 1e9)
	}
}

// BindSuggestions attaches the live open-suggestions sampler exposed as
// dart_suggestions_open.
func (m *Metrics) BindSuggestions(f func() int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.openSuggestions = f
}

// BindTracer attaches the tracer's dropped-spans sampler, exposed as
// dart_trace_spans_dropped_total. The family is emitted unconditionally
// (0 while unbound) so dashboards never see it appear out of nowhere.
func (m *Metrics) BindTracer(droppedSpans func() uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.droppedSpans = droppedSpans
}

// BindBus attaches the bus's per-subscriber drop sampler, exposed as
// dart_events_dropped_total{subscriber}.
func (m *Metrics) BindBus(droppedEvents func() map[string]uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.droppedEvents = droppedEvents
}

// Bind attaches the live gauges (queue depth and job worker count) the
// registry samples at exposition time.
func (m *Metrics) Bind(queueDepth func() int, workers int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueDepth = queueDepth
	m.workerCount = workers
}

// BindStore attaches the job store's stats sampler; the dart_store_*
// families are exposed only once a store is bound, so storeless servers
// keep their exposition unchanged.
func (m *Metrics) BindStore(stats func() store.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.storeStats = stats
}

// StoreError counts one non-fatal job store append failure.
func (m *Metrics) StoreError() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.storeErrors++
}

// Recovered records the boot-time replay outcome: jobs re-enqueued, jobs
// restored terminal with results, and jobs dropped for lack of queue
// capacity.
func (m *Metrics) Recovered(requeued, completed, dropped int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recRequeued = uint64(requeued)
	m.recCompleted = uint64(completed)
	m.recDropped = uint64(dropped)
}

// Snapshot returns the submitted and per-terminal-state finished counters;
// tests use it to cross-check /metrics against job store contents.
func (m *Metrics) Snapshot() (submitted uint64, finished map[JobState]uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	finished = make(map[JobState]uint64, len(m.finished))
	for k, v := range m.finished {
		finished[k] = v
	}
	return m.submitted, finished
}

// WritePrometheus emits the whole registry in Prometheus text exposition
// format, deterministically ordered.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP dart_build_info Build metadata; the value is always 1.")
	fmt.Fprintln(w, "# TYPE dart_build_info gauge")
	fmt.Fprintf(w, "dart_build_info{version=%q,go_version=%q} 1\n", Version, runtime.Version())

	fmt.Fprintln(w, "# HELP dart_uptime_seconds Seconds since the metrics registry was created.")
	fmt.Fprintln(w, "# TYPE dart_uptime_seconds gauge")
	fmt.Fprintf(w, "dart_uptime_seconds %g\n", m.now().Sub(m.start).Seconds())

	fmt.Fprintln(w, "# HELP dart_goroutines Live goroutines at exposition time.")
	fmt.Fprintln(w, "# TYPE dart_goroutines gauge")
	fmt.Fprintf(w, "dart_goroutines %d\n", m.goroutines())

	fmt.Fprintln(w, "# HELP dart_heap_bytes Heap bytes in use at exposition time.")
	fmt.Fprintln(w, "# TYPE dart_heap_bytes gauge")
	fmt.Fprintf(w, "dart_heap_bytes %d\n", m.heapBytes())

	fmt.Fprintln(w, "# HELP dartd_jobs_submitted_total Jobs accepted for processing.")
	fmt.Fprintln(w, "# TYPE dartd_jobs_submitted_total counter")
	fmt.Fprintf(w, "dartd_jobs_submitted_total %d\n", m.submitted)

	fmt.Fprintln(w, "# HELP dartd_jobs_total Jobs finished, by terminal state.")
	fmt.Fprintln(w, "# TYPE dartd_jobs_total counter")
	for _, s := range JobStates {
		if !s.Terminal() {
			continue
		}
		fmt.Fprintf(w, "dartd_jobs_total{state=%q} %d\n", string(s), m.finished[s])
	}

	fmt.Fprintln(w, "# HELP dart_spec_rejections_total Submissions rejected by admission-time spec vetting.")
	fmt.Fprintln(w, "# TYPE dart_spec_rejections_total counter")
	fmt.Fprintf(w, "dart_spec_rejections_total %d\n", m.specRejections)

	fmt.Fprintln(w, "# HELP dartd_job_retries_total Job attempts retried after transient failures.")
	fmt.Fprintln(w, "# TYPE dartd_job_retries_total counter")
	fmt.Fprintf(w, "dartd_job_retries_total %d\n", m.retries)

	fmt.Fprintln(w, "# HELP dartd_violations_found_total Ground constraint violations detected across jobs.")
	fmt.Fprintln(w, "# TYPE dartd_violations_found_total counter")
	fmt.Fprintf(w, "dartd_violations_found_total %d\n", m.violations)

	fmt.Fprintln(w, "# HELP dartd_repair_updates_total Atomic updates across computed repairs (summed cardinality).")
	fmt.Fprintln(w, "# TYPE dartd_repair_updates_total counter")
	fmt.Fprintf(w, "dartd_repair_updates_total %d\n", m.updates)

	fmt.Fprintln(w, "# HELP dart_repair_decisions_total Suggestion-ledger transitions in validation sessions, by outcome state.")
	fmt.Fprintln(w, "# TYPE dart_repair_decisions_total counter")
	for _, k := range []repair.Kind{repair.KindAccepted, repair.KindRejected, repair.KindReverted, repair.KindSuperseded} {
		fmt.Fprintf(w, "dart_repair_decisions_total{state=%q} %d\n", string(k), m.repairDecisions[k])
	}

	fmt.Fprintln(w, "# HELP dartd_components_solved_total Violated connected components handed to a solver.")
	fmt.Fprintln(w, "# TYPE dartd_components_solved_total counter")
	fmt.Fprintf(w, "dartd_components_solved_total %d\n", m.compSolved)

	fmt.Fprintln(w, "# HELP dartd_components_reused_total Component re-solves served from the prepared problem's memo.")
	fmt.Fprintln(w, "# TYPE dartd_components_reused_total counter")
	fmt.Fprintf(w, "dartd_components_reused_total %d\n", m.compReused)

	fmt.Fprintln(w, "# HELP dart_bb_nodes_total Branch-and-bound nodes explored by the repair solver.")
	fmt.Fprintln(w, "# TYPE dart_bb_nodes_total counter")
	fmt.Fprintf(w, "dart_bb_nodes_total %d\n", m.bbNodes)

	fmt.Fprintln(w, "# HELP dartd_result_cache_hits_total Jobs served from the result cache.")
	fmt.Fprintln(w, "# TYPE dartd_result_cache_hits_total counter")
	fmt.Fprintf(w, "dartd_result_cache_hits_total %d\n", m.cacheHits)

	fmt.Fprintln(w, "# HELP dartd_result_cache_misses_total Jobs that ran the pipeline (result cache miss or cache disabled).")
	fmt.Fprintln(w, "# TYPE dartd_result_cache_misses_total counter")
	fmt.Fprintf(w, "dartd_result_cache_misses_total %d\n", m.cacheMisses)

	// Telemetry-loss counters: emitted unconditionally (0 when the tracer
	// or bus is absent) so the golden exposition stays deterministic and
	// dashboards can alert on any nonzero rate.
	fmt.Fprintln(w, "# HELP dart_trace_spans_dropped_total Span records discarded by the tracer (ring-buffer eviction or spans ending after their trace sealed).")
	fmt.Fprintln(w, "# TYPE dart_trace_spans_dropped_total counter")
	var spansDropped uint64
	if m.droppedSpans != nil {
		spansDropped = m.droppedSpans()
	}
	fmt.Fprintf(w, "dart_trace_spans_dropped_total %d\n", spansDropped)

	fmt.Fprintln(w, "# HELP dart_events_dropped_total Live telemetry events dropped per slow subscriber.")
	fmt.Fprintln(w, "# TYPE dart_events_dropped_total counter")
	if m.droppedEvents != nil {
		drops := m.droppedEvents()
		names := make([]string, 0, len(drops))
		for name := range drops {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "dart_events_dropped_total{subscriber=%q} %d\n", name, drops[name])
		}
	}

	if m.storeStats != nil {
		st := m.storeStats()

		fmt.Fprintln(w, "# HELP dart_store_appends_total Records appended to the job store.")
		fmt.Fprintln(w, "# TYPE dart_store_appends_total counter")
		fmt.Fprintf(w, "dart_store_appends_total %d\n", st.Appends)

		fmt.Fprintln(w, "# HELP dart_store_append_bytes_total Frame bytes appended to the job store.")
		fmt.Fprintln(w, "# TYPE dart_store_append_bytes_total counter")
		fmt.Fprintf(w, "dart_store_append_bytes_total %d\n", st.AppendBytes)

		fmt.Fprintln(w, "# HELP dart_store_append_errors_total Job store appends that failed (jobs still completed in memory).")
		fmt.Fprintln(w, "# TYPE dart_store_append_errors_total counter")
		fmt.Fprintf(w, "dart_store_append_errors_total %d\n", m.storeErrors)

		fmt.Fprintln(w, "# HELP dart_store_fsyncs_total fsync calls issued by the job store.")
		fmt.Fprintln(w, "# TYPE dart_store_fsyncs_total counter")
		fmt.Fprintf(w, "dart_store_fsyncs_total %d\n", st.Fsyncs)

		fmt.Fprintln(w, "# HELP dart_store_snapshots_total Snapshots written (each absorbs and truncates the log).")
		fmt.Fprintln(w, "# TYPE dart_store_snapshots_total counter")
		fmt.Fprintf(w, "dart_store_snapshots_total %d\n", st.Snapshots)

		fmt.Fprintln(w, "# HELP dart_store_wal_bytes Current size of the write-ahead log.")
		fmt.Fprintln(w, "# TYPE dart_store_wal_bytes gauge")
		fmt.Fprintf(w, "dart_store_wal_bytes %d\n", st.WALBytes)

		fmt.Fprintln(w, "# HELP dart_store_snapshot_bytes Size of the current snapshot blob.")
		fmt.Fprintln(w, "# TYPE dart_store_snapshot_bytes gauge")
		fmt.Fprintf(w, "dart_store_snapshot_bytes %d\n", st.SnapshotBytes)

		fmt.Fprintln(w, "# HELP dart_store_replay_seconds Wall-clock time of the last store replay.")
		fmt.Fprintln(w, "# TYPE dart_store_replay_seconds gauge")
		fmt.Fprintf(w, "dart_store_replay_seconds %g\n", st.ReplaySeconds)

		fmt.Fprintln(w, "# HELP dart_store_replay_records Records delivered by the last store replay.")
		fmt.Fprintln(w, "# TYPE dart_store_replay_records gauge")
		fmt.Fprintf(w, "dart_store_replay_records %d\n", st.ReplayRecords)

		fmt.Fprintln(w, "# HELP dart_store_recovered_jobs Jobs recovered at boot, by outcome.")
		fmt.Fprintln(w, "# TYPE dart_store_recovered_jobs gauge")
		fmt.Fprintf(w, "dart_store_recovered_jobs{kind=\"requeued\"} %d\n", m.recRequeued)
		fmt.Fprintf(w, "dart_store_recovered_jobs{kind=\"completed\"} %d\n", m.recCompleted)
		fmt.Fprintf(w, "dart_store_recovered_jobs{kind=\"dropped\"} %d\n", m.recDropped)
	}

	if m.queueDepth != nil {
		fmt.Fprintln(w, "# HELP dartd_queue_depth Jobs waiting for a worker.")
		fmt.Fprintln(w, "# TYPE dartd_queue_depth gauge")
		fmt.Fprintf(w, "dartd_queue_depth %d\n", m.queueDepth())
	}
	if m.openSuggestions != nil {
		fmt.Fprintln(w, "# HELP dart_suggestions_open Suggestions awaiting an operator decision across live validation sessions.")
		fmt.Fprintln(w, "# TYPE dart_suggestions_open gauge")
		fmt.Fprintf(w, "dart_suggestions_open %d\n", m.openSuggestions())
	}
	if m.workerCount > 0 {
		fmt.Fprintln(w, "# HELP dartd_workers Configured worker count.")
		fmt.Fprintln(w, "# TYPE dartd_workers gauge")
		fmt.Fprintf(w, "dartd_workers %d\n", m.workerCount)
	}

	fmt.Fprintln(w, "# HELP dartd_stage_seconds Pipeline stage latency, by stage.")
	fmt.Fprintln(w, "# TYPE dartd_stage_seconds histogram")
	stages := make([]string, 0, len(m.stages))
	for s := range m.stages {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		m.stages[s].write(w, "dartd_stage_seconds", fmt.Sprintf("stage=%q", s))
	}

	fmt.Fprintln(w, "# HELP dart_prepare_seconds Repair-problem preparation latency (grounding + decomposition, once per job).")
	fmt.Fprintln(w, "# TYPE dart_prepare_seconds histogram")
	m.prepareSeconds.write(w, "dart_prepare_seconds", "")

	fmt.Fprintln(w, "# HELP dart_resolve_seconds Prepared-problem re-solve latency (once per validation-loop iteration).")
	fmt.Fprintln(w, "# TYPE dart_resolve_seconds histogram")
	m.resolveSeconds.write(w, "dart_resolve_seconds", "")

	fmt.Fprintln(w, "# HELP dart_decision_seconds Proposal-to-decision latency of validation-session suggestions.")
	fmt.Fprintln(w, "# TYPE dart_decision_seconds histogram")
	m.decisionSeconds.write(w, "dart_decision_seconds", "")

	fmt.Fprintln(w, "# HELP dartd_job_seconds Whole-job latency (queue wait excluded).")
	fmt.Fprintln(w, "# TYPE dartd_job_seconds histogram")
	m.jobSeconds.write(w, "dartd_job_seconds", "")

	fmt.Fprintln(w, "# HELP dart_queue_wait_seconds Time jobs spent queued before their first dequeue.")
	fmt.Fprintln(w, "# TYPE dart_queue_wait_seconds histogram")
	m.queueWait.write(w, "dart_queue_wait_seconds", "")
}
