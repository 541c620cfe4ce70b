package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestWorkloads runs every workload at a tiny size, untraced and traced,
// twice, and checks that every metric is emitted with its unit, that the
// output checks pass, and that the digest is the same on all four runs.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			digest := ""
			for run := 0; run < 2; run++ {
				for _, trace := range []bool{false, true} {
					cfg := config{workload: w.name, id: w.id, seed: 7, seconds: 0.2, trace: trace, out: t.TempDir()}
					o, err := runWorkload(cfg)
					if err != nil {
						t.Fatalf("trace=%v: %v", trace, err)
					}
					r, na, err := result(cfg, o)
					if err != nil {
						t.Fatalf("trace=%v: %v", trace, err)
					}
					if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
						t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d problems=%v", trace, r.Correct, r.Attempted, r.Failed, o.problems)
					}
					defs := endToEnd
					if trace {
						defs = perLayer
					}
					if len(r.Metrics) != len(defs) {
						t.Errorf("trace=%v: %d metrics, want %d", trace, len(r.Metrics), len(defs))
					}
					for _, d := range defs {
						m, ok := r.Metrics[d.name]
						switch {
						case !ok || m.Unit != d.unit:
							t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, d.name, m, d.unit)
						case !trace && !(m.Value > 0):
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
						}
					}
					for _, name := range na {
						if r.Metrics[name].Value != 0 {
							t.Errorf("not-applicable metric %s = %v, want 0", name, r.Metrics[name].Value)
						}
					}
					if digest == "" {
						digest = o.digest
					} else if o.digest != digest {
						t.Errorf("run %d trace=%v: digest %s, want %s", run, trace, o.digest, digest)
					}
				}
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics the program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name  string   `json:"name"`
		Unit  string   `json:"unit"`
		Bound *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s, want %s", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		section string
		got     []metric
		want    []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s has %d metrics, want %d", c.section, len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", c.section, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
			if (c.section == "end_to_end") != (m.Bound != nil) {
				t.Errorf("%s metric %s: bound %v", c.section, m.Name, m.Bound)
			}
		}
	}
}
