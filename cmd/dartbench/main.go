// Command dartbench regenerates the experimental evaluation: every
// experiment E1-E10 indexed in DESIGN.md prints as one table (the tables
// recorded in EXPERIMENTS.md).
//
// Usage:
//
//	dartbench                 # all experiments, default sizes
//	dartbench -run E2,E6      # a subset
//	dartbench -quick          # smaller corpora (fast smoke run)
//	dartbench -seed 7         # change the corpus seed
//	dartbench -json out.json  # machine-readable micro-benchmarks, then exit
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"dart/internal/aggrcons"
	"dart/internal/analysis"
	"dart/internal/analysis/passes"
	"dart/internal/convert"
	"dart/internal/core"
	"dart/internal/docgen"
	"dart/internal/experiments"
	"dart/internal/milp"
	"dart/internal/obs"
	"dart/internal/runningex"
	"dart/internal/scenario"
	"dart/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dartbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		runList = flag.String("run", "all", "comma-separated experiment ids (E1..E13) or 'all'")
		quick   = flag.Bool("quick", false, "smaller corpora for a fast run")
		seed    = flag.Int64("seed", 42, "corpus random seed")
		jsonOut = flag.String("json", "", "write {bench, ns_op, allocs_op} micro-benchmark rows to this file and exit")
	)
	flag.Parse()

	if *jsonOut != "" {
		return writeBenchJSON(*jsonOut)
	}

	docs := 40
	e10docs := 30
	if *quick {
		docs = 8
		e10docs = 5
	}

	type exp struct {
		id string
		fn func() (*experiments.Table, error)
	}
	all := []exp{
		{"E1", experiments.E1RunningExample},
		{"E2", func() (*experiments.Table, error) { return experiments.E2RepairQuality(docs, *seed) }},
		{"E3", func() (*experiments.Table, error) { return experiments.E3Scaling(2, *seed) }},
		{"E4", func() (*experiments.Table, error) { return experiments.E4OperatorLoop(docs/2, *seed) }},
		{"E5", func() (*experiments.Table, error) { return experiments.E5Wrapper(docs/4, *seed) }},
		{"E6", func() (*experiments.Table, error) { return experiments.E6Baselines(docs/2, *seed) }},
		{"E7", func() (*experiments.Table, error) { return experiments.E7BigM(*seed) }},
		{"E8", func() (*experiments.Table, error) { return experiments.E8Formulation(*seed) }},
		{"E9", func() (*experiments.Table, error) { return experiments.E9Steadiness() }},
		{"E10", func() (*experiments.Table, error) { return experiments.E10EndToEnd(e10docs, *seed) }},
		{"E11", func() (*experiments.Table, error) { return experiments.E11Reliability(docs/4, *seed) }},
		{"E12", func() (*experiments.Table, error) { return experiments.E12ReliabilityGuidedValidation(docs/4, *seed) }},
		{"E13", func() (*experiments.Table, error) { return experiments.E13ErrorDepth(docs/2, *seed) }},
	}

	want := map[string]bool{}
	if *runList != "all" {
		for _, id := range strings.Split(*runList, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		start := time.Now()
		tab, err := e.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Println(tab.Format())
		fmt.Printf("(%s completed in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// benchMILPModel builds a reproducible random integer program exercising
// the branch-and-bound kernel.
func benchMILPModel(seed int64) *milp.Model {
	r := rand.New(rand.NewSource(seed))
	m := milp.NewModel()
	nv := 8
	for j := 0; j < nv; j++ {
		m.AddVar("x", 0, float64(1+r.Intn(4)), milp.Integer, float64(r.Intn(13)-6))
	}
	for i := 0; i < 4; i++ {
		terms := make([]milp.Term, nv)
		for j := 0; j < nv; j++ {
			terms[j] = milp.Term{Var: milp.Var(j), Coeff: float64(r.Intn(9) - 4)}
		}
		rel := []milp.Rel{milp.LE, milp.GE}[r.Intn(2)]
		m.MustAddConstraint("c", terms, rel, float64(r.Intn(19)-6))
	}
	return m
}

// writeBenchJSON runs the micro-benchmark suite via testing.Benchmark and
// writes one {bench, ns_op, allocs_op} row per benchmark, giving CI a
// machine-readable perf baseline per PR.
func writeBenchJSON(path string) error {
	walRecord := func(i int) *store.Record {
		return &store.Record{
			Type:     store.RecTransition,
			UnixNano: int64(1754600000000000000 + i),
			JobID:    fmt.Sprintf("job-%06d", i),
			State:    "running",
			Attempts: 1,
			TraceID:  "0123456789abcdef",
			Blob:     []byte(`{"repair":{"card":1}}`),
		}
	}
	md, err := scenario.CashBudget()
	if err != nil {
		return err
	}
	cashBudget := md.Constraints()
	// extract50y converts and wraps one clean 50-year budget rendered in
	// format f: the HTML rendering passes through the converter as is, and
	// the scan text is converted to the HTML the wrapper then reads.
	extract50y := func(f convert.Format) func(b *testing.B) {
		return func(b *testing.B) {
			doc := docgen.BudgetDocument(docgen.RandomBudget(rand.New(rand.NewSource(7331)), 2000, 50))
			src := doc.HTML()
			if f == convert.FormatScanText {
				src = doc.ScanText()
			}
			w := md.NewWrapper()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				html, err := convert.ToHTML(src, f)
				if err != nil {
					b.Fatal(err)
				}
				instances, _, err := w.Extract(html)
				if err != nil {
					b.Fatal(err)
				}
				if len(instances) != 500 {
					b.Fatalf("instances = %d, want 500", len(instances))
				}
			}
		}
	}
	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		// Named MILPSolveSeq so that earlier BENCH_PR artifacts compare.
		{"MILPSolveSeq", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := milp.Solve(benchMILPModel(7331), milp.MILPOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"WALAppend", func(b *testing.B) {
			dir, err := os.MkdirTemp("", "dartbench-wal")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			w, err := store.OpenWAL(dir, store.WALOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Append(walRecord(i)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"WALReplay", func(b *testing.B) {
			dir, err := os.MkdirTemp("", "dartbench-wal")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			w, err := store.OpenWAL(dir, store.WALOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			const frames = 1000
			for i := 0; i < frames; i++ {
				if _, err := w.Append(walRecord(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				noSealed := func([]byte) error { return nil }
				if _, err := w.Replay(noSealed, func(*store.Record) error { n++; return nil }); err != nil {
					b.Fatal(err)
				}
				if n != frames {
					b.Fatalf("replayed %d frames, want %d", n, frames)
				}
			}
		}},
		{"VetTree", func(b *testing.B) {
			// Load once outside the timer: the benchmark isolates analysis
			// cost (CFG + dataflow over every scoped package), and repeat
			// loads are already memoized by the loader cache.
			pkgs, err := analysis.Load(".", "./...")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total := 0
				for _, pkg := range pkgs {
					active := passes.Active(pkg.ImportPath)
					if len(active) == 0 {
						continue
					}
					fs, err := analysis.Run([]*analysis.Package{pkg}, active)
					if err != nil {
						b.Fatal(err)
					}
					total += len(fs)
				}
				if total != 0 {
					b.Fatalf("vet over the tree found %d findings, want 0", total)
				}
			}
		}},
		{"EventBusPublish", func(b *testing.B) {
			bus := obs.NewBus(obs.BusConfig{})
			sub, _ := bus.Subscribe("bench", 4096)
			defer sub.Close()
			stop := make(chan struct{})
			go func() {
				for {
					select {
					case <-sub.C():
					case <-stop:
						return
					}
				}
			}()
			defer close(stop)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bus.Publish(obs.Event{Kind: obs.KindSolver, Name: "progress",
					JobID: "job-bench", Gap: 0.5, Nodes: int64(i)})
			}
		}},
		{"Check50y", func(b *testing.B) {
			db, _ := experiments.BudgetWithErrors(50, 4, rand.New(rand.NewSource(7331)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				viols, err := aggrcons.Check(db, cashBudget, 1e-9)
				if err != nil {
					b.Fatal(err)
				}
				if len(viols) == 0 {
					b.Fatal("corrupted budget reported consistent")
				}
			}
		}},
		{"Prepare50y", func(b *testing.B) {
			db, _ := experiments.BudgetWithErrors(50, 4, rand.New(rand.NewSource(7331)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Prepare(db, cashBudget); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Extract50y", extract50y(convert.FormatHTML)},
		{"Extract50yScan", extract50y(convert.FormatScanText)},
		{"RepairRunningExample", func(b *testing.B) {
			b.ReportAllocs()
			cons := runningex.Constraints()
			for i := 0; i < b.N; i++ {
				db := runningex.AcquiredDatabase()
				res, err := core.FindRepair(context.Background(), &core.MILPSolver{}, db, cons, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Status != milp.StatusOptimal {
					b.Fatalf("status %v", res.Status)
				}
			}
		}},
	}
	type row struct {
		Bench    string  `json:"bench"`
		NsOp     float64 `json:"ns_op"`
		AllocsOp int64   `json:"allocs_op"`
	}
	rows := make([]row, 0, len(benches))
	for _, be := range benches {
		r := testing.Benchmark(be.fn)
		rows = append(rows, row{Bench: be.name, NsOp: float64(r.NsPerOp()), AllocsOp: r.AllocsPerOp()})
		fmt.Printf("%-24s %12d ns/op %8d allocs/op\n", be.name, r.NsPerOp(), r.AllocsPerOp())
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
