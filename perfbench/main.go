// Command perfbench is the DART benchmark: four seeded workloads that drive
// the repository's public entry points end to end, check every output, and
// report the metrics BENCHMARK.json names. With --trace 0 a run reports the
// end-to-end metrics; with --trace 1 it runs the workload once untraced and
// once with the benchmark's own spans around every call into a layer, and
// reports the per-layer breakdown folded from those spans.
//
//	perfbench --workload pipeline-small --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Lines before it are a
// human-readable report. README.md describes the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// Workload identifiers, used as bits so a metric can name the workloads it
// applies to.
const (
	wPipelineSmall = 1 << iota
	wRepairLarge
	wSessionReview
	wDartdDurable

	wInProcess = wPipelineSmall | wRepairLarge
	wAll       = wInProcess | wSessionReview | wDartdDurable
)

// workloads maps each workload name to its identifier, in report order.
var workloads = []struct {
	name string
	id   int
}{
	{"pipeline-small", wPipelineSmall},
	{"repair-large", wRepairLarge},
	{"session-review", wSessionReview},
	{"dartd-durable", wDartdDurable},
}

// metricDef is one reported metric: its name, unit, and the workloads that
// exercise it. On any other workload the metric is not applicable; it is
// reported as 0 and listed as such in the human-readable report.
type metricDef struct {
	name, unit string
	on         int
}

// endToEnd lists the metrics of an untraced run (--trace 0). Every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", wAll},
	{"heap_mb", "MiB", wAll},
	{"docs_per_s", "1/s", wAll},
	{"doc_p50_ms", "ms", wAll},
	{"doc_tail_ms", "ms", wAll},
}

// perLayer lists the metrics of a traced run (--trace 1), grouped by layer.
// Times ending in _per_doc are self times: a span's duration minus the part
// its child spans cover.
var perLayer = []metricDef{
	{"convert.us_per_doc", "us", wInProcess | wSessionReview},
	{"wrapper.us_per_doc", "us", wInProcess | wSessionReview},
	{"wrapper.skipped_rows", "count/doc", wInProcess | wSessionReview},
	{"wrapper.string_repairs", "count/doc", wInProcess | wSessionReview},
	{"dbgen.us_per_doc", "us", wInProcess | wSessionReview},
	{"dbgen.row_errors", "count/doc", wInProcess | wSessionReview},
	{"aggrcons.check_us_per_doc", "us", wInProcess | wSessionReview},
	{"aggrcons.violations_per_doc", "count/doc", wInProcess | wSessionReview},
	{"core.prepare_us_per_doc", "us", wInProcess | wSessionReview},
	{"core.vars_per_doc", "count/doc", wInProcess | wSessionReview},
	{"core.rows_per_doc", "count/doc", wInProcess | wSessionReview},
	{"core.components_per_doc", "count/doc", wInProcess | wSessionReview},
	{"core.solve_us_per_call", "us", wInProcess | wSessionReview},
	{"core.components_reused_ratio", "ratio", wInProcess | wSessionReview},
	{"milp.nodes_per_solve", "count", wInProcess | wSessionReview},
	{"milp.lp_iters_per_solve", "count", wInProcess | wSessionReview},
	{"milp.big_m_escalations", "count", wInProcess | wSessionReview},
	{"core.verify_us_per_doc", "us", wInProcess},
	{"validate.decisions_per_doc", "count/doc", wSessionReview},
	{"validate.iterations_per_doc", "count/doc", wSessionReview},
	{"repair.rejected_ratio", "ratio", wSessionReview},
	{"validate.finish_us_per_doc", "us", wSessionReview},
	{"validate.first_suggestion_p50_ms", "ms", wSessionReview},
	{"validate.decision_p50_us", "us", wSessionReview},
	{"validate.decision_p90_us", "us", wSessionReview},
	{"validate.truth_recovered_ratio", "ratio", wSessionReview},
	{"service.submit_ms_p50", "ms", wDartdDurable},
	{"service.server_ms_p50", "ms", wDartdDurable},
	{"service.server_ms_p99", "ms", wDartdDurable},
	{"service.queue_wait_ms_mean", "ms", wDartdDurable},
	{"service.run_ms_mean", "ms", wDartdDurable},
	{"service.polls_per_job", "count", wDartdDurable},
	{"service.response_kb_per_job", "KiB", wDartdDurable},
	{"service.cache_hit_ratio", "ratio", wDartdDurable},
	{"service.retries", "count", wDartdDurable},
	{"store.appends_per_job", "count", wDartdDurable},
	{"store.fsyncs_per_job", "count", wDartdDurable},
	{"store.wal_bytes_per_job", "B", wDartdDurable},
	{"store.snapshots", "count", wDartdDurable},
	{"store.snapshot_bytes", "B", wDartdDurable},
	{"store.replay_records", "count", wDartdDurable},
	{"store.snapshot_jobs", "count", wDartdDurable},
	{"store.recover_s", "s", wDartdDurable},
	{"obs.trace_overhead_share", "ratio", wAll},
	{"obs.spans_dropped", "count", wDartdDurable},
	{"obs.events_dropped", "count", wDartdDurable},
	{"runtime.alloc_kb_per_doc", "KiB", wAll},
	{"runtime.gc_cycles", "count/kdoc", wAll},
}

// config is one benchmark invocation.
type config struct {
	workload string
	id       int
	seed     int64
	seconds  float64
	trace    bool
	// out is the directory for span files and WAL directories.
	out string
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	// problems lists failed output checks; empty means every check passed.
	problems []string
	// digest covers the repairs of the workload's fixed digest prefix.
	digest string
	// metrics holds the values of the applicable metrics of the run's mode.
	metrics map[string]float64
	// notes are extra report lines (sample counts, named aliases).
	notes []string
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// metricJSON is one metric of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result assembles the result line of a run and the names of the metrics
// that do not apply to its workload. A metric that applies but was not
// measured is an error in the benchmark itself.
func result(cfg config, o *outcome) (resultJSON, []string, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	r := resultJSON{
		Correct:   len(o.problems) == 0 && o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	var na []string
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		switch {
		case d.on&cfg.id == 0:
			na = append(na, d.name)
			v = 0
		case !ok:
			return r, nil, fmt.Errorf("metric %s was not measured", d.name)
		case math.IsInf(v, 1) || math.IsNaN(v):
			// A percentile that a failed operation pushed past every
			// finite sample; JSON has no infinity.
			v = math.MaxFloat64
		}
		r.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return r, na, nil
}

// runWorkload dispatches one run.
func runWorkload(cfg config) (*outcome, error) {
	switch cfg.id {
	case wPipelineSmall:
		return runPipeline(cfg, smallShape)
	case wRepairLarge:
		return runPipeline(cfg, largeShape)
	case wSessionReview:
		return runSession(cfg)
	default:
		return runDartd(cfg)
	}
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: pipeline-small, repair-large, session-review, dartd-durable, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "0 reports end-to-end metrics; 1 reports the traced per-layer breakdown")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span files and WAL directories")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	var names []string
	for _, w := range workloads {
		if cfg.workload == w.name || cfg.workload == "all" {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, name := range names {
		cfg.workload = name
		cfg.id = workloadID(name)
		if err := report(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

// workloadID returns the identifier of a workload name (0 if unknown).
func workloadID(name string) int {
	for _, w := range workloads {
		if w.name == name {
			return w.id
		}
	}
	return 0
}

// report runs one workload and prints its report and result line.
func report(cfg config) error {
	o, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	r, na, err := result(cfg, o)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !slices.Contains(na, name) {
			fmt.Printf("  %-34s %14.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
		}
	}
	if len(na) > 0 {
		fmt.Printf("  not applicable (reported as 0): %s\n", strings.Join(na, ", "))
	}
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  digest %s\n", o.digest)
	fmt.Printf("  operations: %d attempted, %d failed (%.4f%%)\n", o.attempted, o.failed,
		100*float64(o.failed)/float64(max(o.attempted, 1)))
	for _, p := range o.problems {
		fmt.Println("  CHECK FAILED: " + p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
