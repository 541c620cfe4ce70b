package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestCacheKeyLengthPrefixing(t *testing.T) {
	// Field boundaries must matter: shifting a byte between adjacent fields
	// has to produce a different key.
	a := cacheKey(JobSpec{Metadata: "a", Document: "bc"})
	b := cacheKey(JobSpec{Metadata: "ab", Document: "c"})
	if a == b {
		t.Error("metadata/document boundary shift collided")
	}
	c := cacheKey(JobSpec{Solver: "m", Scenario: "ilp"})
	d := cacheKey(JobSpec{Solver: "mi", Scenario: "lp"})
	if c == d {
		t.Error("solver/scenario boundary shift collided")
	}
	// TimeoutMS must not participate: it bounds the computation, not the
	// result.
	e := cacheKey(JobSpec{Document: "doc", TimeoutMS: 5})
	f := cacheKey(JobSpec{Document: "doc", TimeoutMS: 5000})
	if e != f {
		t.Error("TimeoutMS changed the cache key")
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	k1 := cacheKey(JobSpec{Document: "1"})
	k2 := cacheKey(JobSpec{Document: "2"})
	k3 := cacheKey(JobSpec{Document: "3"})
	r1, r2, r3 := runResult{encoded: []byte("1")}, runResult{encoded: []byte("2")}, runResult{encoded: []byte("3")}
	c.put(k1, r1)
	c.put(k2, r2)
	if _, ok := c.get(k1); !ok { // refresh k1: k2 becomes LRU
		t.Fatal("k1 missing before eviction")
	}
	c.put(k3, r3)
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if _, ok := c.get(k2); ok {
		t.Error("k2 survived eviction despite being LRU")
	}
	if got, ok := c.get(k1); !ok || !sameBytes(got.encoded, r1.encoded) {
		t.Error("k1 evicted or replaced")
	}
	if got, ok := c.get(k3); !ok || !sameBytes(got.encoded, r3.encoded) {
		t.Error("k3 missing")
	}
}

// sameBytes reports whether a and b are the same non-empty slice, not
// merely equal bytes.
func sameBytes(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// TestCachingRunnerServesRepeatsAndCounts: a repeat is served from the
// cache without running or encoding again. Its result is the cached
// slice itself, with the totals metrics count, and the hits and misses
// are counted.
func TestCachingRunnerServesRepeatsAndCounts(t *testing.T) {
	m := NewMetrics()
	calls := 0
	next := encoding(func(ctx context.Context, spec JobSpec) (*ResultJSON, error) {
		calls++
		res := recoveryResult()
		res.Acquisition = &AcquisitionJSON{Violations: []ViolationJSON{{}}}
		return res, nil
	})
	run := cachingRunner(next, 4, m)
	spec := JobSpec{Document: "doc", Scenario: "cashbudget"}
	first, err := run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("inner runner ran %d times, want 1", calls)
	}
	if !sameBytes(first.encoded, second.encoded) {
		t.Error("repeat submission not served the cached bytes")
	}
	if second.violations != 1 || second.updates != 1 {
		t.Errorf("hit counts %d violations and %d updates, want 1 and 1", second.violations, second.updates)
	}
	if _, err := run(context.Background(), JobSpec{Document: "other"}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("distinct submission did not run: calls = %d", calls)
	}
	var sb strings.Builder
	m.WritePrometheus(&sb)
	for _, want := range []string{
		"dartd_result_cache_hits_total 1",
		"dartd_result_cache_misses_total 2",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestCachingRunnerDoesNotCacheFailures(t *testing.T) {
	calls := 0
	next := encoding(func(ctx context.Context, spec JobSpec) (*ResultJSON, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient")
		}
		return &ResultJSON{}, nil
	})
	run := cachingRunner(next, 4, nil)
	spec := JobSpec{Document: "doc"}
	if _, err := run(context.Background(), spec); err == nil {
		t.Fatal("first run should fail")
	}
	if _, err := run(context.Background(), spec); err != nil {
		t.Fatalf("retry not re-run: %v", err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (failure must not be cached)", calls)
	}
}

// TestServiceResultCacheEndToEnd submits the same document twice against a
// cache-enabled server and checks the second job is a metrics-visible hit.
func TestServiceResultCacheEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, ResultCacheSize: 8})
	doc := runningExampleErrorHTML()
	var results []JobView
	for i := 0; i < 2; i++ {
		v, resp := postJob(t, ts.URL, JobSpec{Document: doc, Scenario: "cashbudget"})
		if resp.StatusCode != 202 {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		results = append(results, pollJob(t, ts.URL, v.ID))
	}
	for i, v := range results {
		if v.State != StateSucceeded || v.Result == nil || v.Result.Repair == nil {
			t.Fatalf("job %d: state %v", i, v.State)
		}
	}
	if fmt.Sprint(results[0].Result.Repair.Updates) != fmt.Sprint(results[1].Result.Repair.Updates) {
		t.Errorf("cached result differs:\n%v\nvs\n%v",
			results[0].Result.Repair.Updates, results[1].Result.Repair.Updates)
	}
	_, first, _ := srv.Queue().getEncoded(results[0].ID)
	_, second, _ := srv.Queue().getEncoded(results[1].ID)
	if !sameBytes(first, second) {
		t.Error("the repeated job keeps its own copy of the cached result")
	}
	var sb strings.Builder
	srv.metrics.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "dartd_result_cache_hits_total 1") {
		t.Errorf("expected exactly one cache hit; metrics:\n%s", grepLines(sb.String(), "cache"))
	}
	if !strings.Contains(sb.String(), "dartd_result_cache_misses_total 1") {
		t.Errorf("expected exactly one cache miss; metrics:\n%s", grepLines(sb.String(), "cache"))
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
