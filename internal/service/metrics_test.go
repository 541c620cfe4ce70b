package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dart/internal/obs"
	"dart/internal/repair"
)

// TestHistogramBucketsStayCumulative is the regression test for the
// exposition format after the per-bucket storage change: observe stores each
// observation in exactly one bucket, yet the written le-series must be
// cumulative (monotone non-decreasing, ending at the total count), exactly
// what Prometheus's histogram_quantile expects.
func TestHistogramBucketsStayCumulative(t *testing.T) {
	h := newHistogram()
	obsv := []float64{0.0001, 0.0005, 0.0007, 0.004, 0.004, 3, 999}
	for _, v := range obsv {
		h.observe(v)
	}

	// Internal storage is per-bucket: the sum over all slots is the count.
	var stored uint64
	for _, c := range h.counts {
		stored += c
	}
	if stored != uint64(len(obsv)) {
		t.Fatalf("per-bucket counts sum to %d, want %d (one slot per observation)", stored, len(obsv))
	}
	// An observation equal to an upper bound lands in that bucket (le
	// semantics), and an overflow lands in the +Inf slot.
	if h.counts[0] != 2 { // 0.0001 and 0.0005 <= 0.0005
		t.Errorf("bucket le=0.0005 stored %d, want 2", h.counts[0])
	}
	if h.counts[len(histBuckets)] != 1 { // 999 > 60
		t.Errorf("+Inf overflow stored %d, want 1", h.counts[len(histBuckets)])
	}

	var sb strings.Builder
	h.write(&sb, "x_seconds", "")
	var prev uint64
	var lines int
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "x_seconds_bucket") {
			continue
		}
		lines++
		var cum uint64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &cum); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if cum < prev {
			t.Errorf("bucket series not cumulative: %q after %d", line, prev)
		}
		prev = cum
	}
	if lines != len(histBuckets)+1 {
		t.Fatalf("wrote %d bucket lines, want %d (+Inf included)", lines, len(histBuckets)+1)
	}
	if prev != uint64(len(obsv)) {
		t.Errorf("+Inf bucket is %d, want the total count %d", prev, len(obsv))
	}
}

// TestMetricsGoldenExposition pins the full /metrics output for a registry
// with deterministic runtime hooks: ordering, label escaping, and every
// family this PR added (build info, uptime, runtime gauges, queue wait) are
// all covered. Regenerate with UPDATE_GOLDEN=1 go test -run
// TestMetricsGoldenExposition ./internal/service.
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

func TestMetricsGoldenExposition(t *testing.T) {
	m := NewMetrics()
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	m.start = base
	m.now = func() time.Time { return base.Add(90 * time.Second) }
	m.goroutines = func() int { return 12 }
	m.heapBytes = func() uint64 { return 4 << 20 }

	m.JobSubmitted()
	m.JobSubmitted()
	m.JobFinished(StateSucceeded, 250*time.Millisecond, 0, 0)
	m.JobFinished(StateFailed, 2*time.Second, 0, 0)
	m.Retry()
	m.QueueWait(3 * time.Millisecond)
	m.QueueWait(40 * time.Millisecond)
	m.FoldSpans([]*obs.SpanRecord{
		{Name: `stage.odd"stage`, DurationNS: int64(10 * time.Millisecond)}, // label escaping
		{Name: "stage.solver", DurationNS: int64(100 * time.Millisecond)},
		{Name: "stage.prepare", DurationNS: int64(5 * time.Millisecond)},
		{Name: "stage.resolve", DurationNS: int64(7 * time.Millisecond)},
		{Name: "repair.component", DurationNS: int64(time.Second)}, // not a stage: ignored
	})
	m.Components(3, 1)
	m.BBNodes(17)
	m.SpecRejected()
	m.CacheHit()
	m.CacheMiss()
	m.RepairEvent(repair.Event{Kind: repair.KindProposed}) // not a decision: no counter, no latency
	m.RepairEvent(repair.Event{Kind: repair.KindAccepted,
		Suggestion: repair.Suggestion{ProposedAt: 0, DecidedAt: int64(1200 * time.Millisecond)}})
	m.RepairEvent(repair.Event{Kind: repair.KindRejected,
		Suggestion: repair.Suggestion{ProposedAt: 0, DecidedAt: int64(30 * time.Millisecond)}})
	m.RepairEvent(repair.Event{Kind: repair.KindReverted})
	m.RepairEvent(repair.Event{Kind: repair.KindSuperseded})
	m.Bind(func() int { return 4 }, 8)
	m.BindSuggestions(func() int { return 3 })
	m.BindTracer(func() uint64 { return 2 })
	m.BindBus(func() map[string]uint64 { return map[string]uint64{"job": 1, "firehose": 5} })

	var buf bytes.Buffer
	m.WritePrometheus(&buf)

	golden := filepath.Join("testdata", "metrics.golden")
	if updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (set UPDATE_GOLDEN=1 to generate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from %s (set UPDATE_GOLDEN=1 to regenerate)\ngot:\n%s", golden, buf.String())
	}
}

// TestQueueWaitHistogramFedOncePerJob drives one retrying job through a pool
// and checks the queue-wait histogram saw exactly one observation even
// though setRunning fired once per attempt.
func TestQueueWaitHistogramFedOncePerJob(t *testing.T) {
	attempts := 0
	q, p, m := startPool(t, 1, func(p *Pool) { p.Backoff = time.Millisecond },
		func(_ context.Context, _ JobSpec) (*ResultJSON, error) {
			attempts++
			if attempts < 3 {
				return nil, Transient(fmt.Errorf("flaky"))
			}
			return &ResultJSON{}, nil
		})
	if _, err := q.Submit(JobSpec{Document: "x"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.queueWait.count != 1 {
		t.Fatalf("queue-wait observations = %d after 3 attempts, want 1", m.queueWait.count)
	}
}

// TestJobCountedBeforeTerminal: a job must be in /metrics by the time it
// turns terminal, so a client that saw it finish reads counts that include
// it. The runner blocks until the test holds the metrics lock; while the
// lock is held the job must stay non-terminal.
func TestJobCountedBeforeTerminal(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	q, p, m := startPool(t, 1, nil, func(context.Context, JobSpec) (*ResultJSON, error) {
		close(started)
		<-release
		return &ResultJSON{}, nil
	})
	v, err := q.Submit(JobSpec{Document: "x"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	m.mu.Lock()
	close(release)
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if got, _ := q.Get(v.ID); got.State.Terminal() {
			m.mu.Unlock()
			t.Fatalf("job %s turned %s while the metrics lock was held, before it was counted", v.ID, got.State)
		}
	}
	m.mu.Unlock()
	waitTerminal(t, q, v.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jobSeconds.count != 1 {
		t.Fatalf("job-seconds observations = %d, want 1", m.jobSeconds.count)
	}
}
