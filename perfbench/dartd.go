package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dart"
	"dart/internal/metadata"
	"dart/internal/obs"
	"dart/internal/scenario"
	"dart/internal/service"
	"dart/internal/store"
)

const (
	// dartdJobsPerSecond sizes dartd-durable: a run submits this many jobs
	// per measured second (at least dartdMinJobs), about what the server
	// completes per second on two cores. The count is fixed so every run
	// of a seed writes the same history and takes the same snapshots.
	dartdJobsPerSecond = 100
	dartdMinJobs       = 24
	// dartdClients closed-loop clients submit and poll.
	dartdClients = 2
	// dartdWarm jobs, from documents outside the measured sequence, warm
	// the server up during set-up.
	dartdWarm = 8
	// dartdRepeatEvery: every 8th submission repeats one of the last
	// dartdRepeatWindow documents, so the result cache serves it.
	dartdRepeatEvery  = 8
	dartdRepeatWindow = 64
	// dartdPoll is the pause before each poll of a submitted job.
	dartdPoll = 500 * time.Microsecond
	// dartdRecoveries is how many times recovery is timed; recover_s is
	// the median.
	dartdRecoveries = 3
)

// serverConfig is cmd/dartd's default configuration on a durable store:
// GOMAXPROCS workers, queue 1024, 60s job deadline, 3 attempts, result
// cache 256, tracer ring 256, event bus 1024, a text logger, snapshots
// every 256 appends.
func serverConfig(st store.JobStore) service.Config {
	return service.Config{
		QueueCapacity:      1024,
		JobTimeout:         60 * time.Second,
		MaxAttempts:        3,
		ResultCacheSize:    256,
		Tracer:             obs.New(obs.Config{Capacity: 256}),
		Bus:                obs.NewBus(obs.BusConfig{Ring: 1024}),
		Logger:             obs.NewLogger(io.Discard, "text"),
		Store:              st,
		StoreSnapshotEvery: 256,
	}
}

// openServer opens (or recovers) a WAL store in fsync mode in dir and
// builds a server on it.
func openServer(dir string) (*store.WAL, *service.Server, error) {
	wal, err := store.OpenWAL(dir, store.WALOptions{SyncEveryAppend: true})
	if err != nil {
		return nil, nil, err
	}
	srv, err := service.New(serverConfig(wal))
	if err != nil {
		wal.Close()
		return nil, nil, err
	}
	return wal, srv, nil
}

// dartdState is a set-up dartd-durable workload: a started server on an
// empty WAL behind an httptest listener, and the submission sequence.
type dartdState struct {
	md     *metadata.Metadata
	docs   []input
	seq    []int    // document index of each submission
	bodies [][]byte // request body of each submission

	dir    string
	wal    *store.WAL
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	closed bool
}

func newDartdState(cfg config, jobs int) (*dartdState, error) {
	md, err := parseMetadata(scenario.CashBudgetSource())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	st := &dartdState{md: md, seq: make([]int, jobs)}
	distinct := 0
	for k := range st.seq {
		if k%dartdRepeatEvery == dartdRepeatEvery-1 {
			st.seq[k] = st.seq[k-1-rng.Intn(min(dartdRepeatWindow, k))]
		} else {
			st.seq[k] = distinct
			distinct++
		}
	}
	sh := smallShape
	st.docs = budgetInputs(rng, distinct, sh.years, sh.misreads, sh.stringRate)
	for _, d := range st.seq {
		b, err := json.Marshal(service.JobSpec{Document: st.docs[d].src, Scenario: "cashbudget"})
		if err != nil {
			return nil, err
		}
		st.bodies = append(st.bodies, b)
	}
	warm := budgetInputs(rng, dartdWarm, sh.years, sh.misreads, sh.stringRate)

	if st.dir, err = os.MkdirTemp(cfg.out, "wal-"); err != nil {
		return nil, err
	}
	if st.wal, st.srv, err = openServer(st.dir); err != nil {
		os.RemoveAll(st.dir)
		return nil, err
	}
	st.srv.Start()
	st.ts = httptest.NewServer(st.srv.Handler())
	st.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: dartdClients},
		Timeout:   30 * time.Second,
	}
	for i, in := range warm {
		b, err := json.Marshal(service.JobSpec{Document: in.src, Scenario: "cashbudget"})
		if err == nil {
			err = st.job(nil, -1, b).err
		}
		if err != nil {
			st.close()
			os.RemoveAll(st.dir)
			return nil, fmt.Errorf("warm-up job %d: %w", i, err)
		}
	}
	return st, nil
}

// close drains the server gracefully and closes the listener and store.
func (st *dartdState) close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	st.ts.Close()
	st.client.CloseIdleConnections()
	if cerr := st.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// discard tears a state down and deletes its WAL directory.
func (st *dartdState) discard() {
	st.close()
	os.RemoveAll(st.dir)
}

// call makes one HTTP request and reads the whole response.
func (st *dartdState) call(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, st.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// jobResult is what a client observed of one job.
type jobResult struct {
	latency time.Duration // submit start to first terminal observation
	view    service.JobView
	polls   int
	bytes   int
	err     error
}

// job submits one job and polls it until it is terminal. A refused
// submission or a job that does not succeed is an error.
func (st *dartdState) job(tr *tracer, k int, body []byte) (r jobResult) {
	root := tr.begin("bench.job", 0, k)
	defer tr.end(root)
	start := time.Now()
	defer func() { r.latency = time.Since(start) }()
	id := tr.begin("service.submit", root, k)
	status, b, err := st.call(http.MethodPost, "/v1/jobs", body)
	tr.end(id)
	r.bytes += len(b)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("submit answered %d: %s", status, strings.TrimSpace(string(b)))
	}
	if err == nil {
		err = json.Unmarshal(b, &r.view)
	}
	if err != nil {
		r.err = err
		return r
	}
	path := "/v1/jobs/" + r.view.ID
	for !r.view.State.Terminal() {
		time.Sleep(dartdPoll)
		id := tr.begin("service.poll", root, k)
		status, b, err = st.call(http.MethodGet, path, nil)
		tr.end(id)
		r.polls++
		r.bytes += len(b)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("poll answered %d: %s", status, strings.TrimSpace(string(b)))
		}
		if err == nil {
			err = json.Unmarshal(b, &r.view)
		}
		if err != nil {
			r.err = err
			return r
		}
	}
	if r.view.State != service.StateSucceeded {
		r.err = fmt.Errorf("job %s ended %s: %s", r.view.ID, r.view.State, r.view.Error)
	}
	return r
}

// run submits the whole sequence from the closed-loop clients and returns
// each job's result and the wall time from first submission to last
// terminal observation.
func (st *dartdState) run(tr *tracer) ([]jobResult, time.Duration) {
	res := make([]jobResult, len(st.seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < dartdClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(res); k = int(next.Add(1)) - 1 {
				res[k] = st.job(tr, k, st.bodies[k])
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// scrape reads the server's /metrics into series → value.
func (st *dartdState) scrape() (map[string]float64, error) {
	status, b, err := st.call(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// delta sums the change of every series of a metric family between two
// scrapes.
func delta(before, after map[string]float64, family string) float64 {
	d := 0.0
	for series, v := range after {
		if series == family || strings.HasPrefix(series, family+"{") {
			d += v - before[series]
		}
	}
	return d
}

// recoverStore times store.OpenWAL plus service.New on a drained server's
// directory, the boot path of a restarted dartd, and returns the median
// time and the replay statistics.
func recoverStore(dir string, wantJobs int) (float64, *service.RecoveryStats, error) {
	var ds []float64
	var rs *service.RecoveryStats
	for i := 0; i < dartdRecoveries; i++ {
		start := time.Now()
		wal, srv, err := openServer(dir)
		d := time.Since(start)
		if err != nil {
			return 0, nil, fmt.Errorf("recovery: %w", err)
		}
		rs = srv.Recovery()
		if err := wal.Close(); err != nil {
			return 0, nil, err
		}
		if rs.Completed != wantJobs || rs.Requeued != 0 {
			return 0, nil, fmt.Errorf("recovery restored %d completed and %d requeued jobs, want %d and 0", rs.Completed, rs.Requeued, wantJobs)
		}
		ds = append(ds, d.Seconds())
	}
	return median(ds), rs, nil
}

// measure runs the sequence on st and drains the server. It returns the
// results, the wall time, and the /metrics before and after the run.
func (st *dartdState) measure(tr *tracer) (res []jobResult, wall time.Duration, before, after map[string]float64, err error) {
	if before, err = st.scrape(); err != nil {
		return
	}
	res, wall = st.run(tr)
	if after, err = st.scrape(); err != nil {
		return
	}
	err = st.close()
	return
}

// check files every job's outcome, comparing each succeeded job with the
// in-process repair of its document, and sets the digest over all jobs.
func (st *dartdState) check(o *outcome, res []jobResult) {
	p := &dart.Pipeline{Metadata: st.md}
	want := map[int]string{}
	keys := make([]string, len(res))
	for k, r := range res {
		o.attempted++
		err := r.err
		if err == nil {
			keys[k], err = st.checkJob(p, want, k, r.view)
		}
		if err != nil {
			o.failed++
			o.problem("job %d: %v", k, err)
		}
	}
	o.digest = digestOf(keys)
}

// checkJob verifies one succeeded job's repaired database and compares its
// repair with the in-process repair of the same document.
func (st *dartdState) checkJob(p *dart.Pipeline, want map[int]string, k int, v service.JobView) (string, error) {
	if v.Result == nil || v.Result.Repair == nil {
		return "", fmt.Errorf("job %s succeeded without a repair", v.ID)
	}
	b, err := json.Marshal(v.Result.Repair)
	if err != nil {
		return "", err
	}
	repaired, err := service.DecodeDatabase(v.Result.Repaired)
	if err == nil {
		err = verify(repaired, st.md.Constraints())
	}
	if err != nil {
		return "", err
	}
	d := st.seq[k]
	if _, ok := want[d]; !ok {
		res, err := p.ProcessContext(context.Background(), st.docs[d].src)
		if err != nil {
			return "", fmt.Errorf("in-process run of its document: %w", err)
		}
		want[d] = repairKey(res.Repair)
	}
	if string(b) != want[d] {
		return "", fmt.Errorf("repair %s differs from the in-process repair %s", b, want[d])
	}
	return string(b), nil
}

// runDartd runs dartd-durable: two closed-loop HTTP clients submitting a
// fixed sequence of jobs to an in-process dartd on a fsync WAL, then a
// graceful drain and a timed recovery of the whole history.
func runDartd(cfg config) (*outcome, error) {
	jobs := max(dartdMinJobs, int(dartdJobsPerSecond*cfg.seconds+0.5))
	var st *dartdState
	setupS, err := repeatSetup(func() (err error) {
		if st != nil {
			st.discard()
		}
		st, err = newDartdState(cfg, jobs)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer func() { st.discard() }()
	o := &outcome{metrics: map[string]float64{}}
	history := jobs + dartdWarm

	if !cfg.trace {
		res, wall, _, _, err := st.measure(nil)
		if err != nil {
			return nil, err
		}
		st.check(o, res)
		lat := make([]float64, len(res))
		for k, r := range res {
			lat[k] = ms(r.latency)
			if r.err != nil {
				lat[k] = math.Inf(1)
			}
		}
		o.metrics["setup_s"] = setupS
		o.metrics["docs_per_s"] = float64(jobs) / wall.Seconds()
		o.metrics["doc_p50_ms"] = percentile(lat, 0.5)
		o.metrics["doc_tail_ms"] = percentile(lat, 0.99)
		// The server still holds every job and its result.
		o.metrics["heap_mb"] = heapMiB()
		recoverS, _, err := recoverStore(st.dir, history)
		if err != nil {
			return nil, err
		}
		o.note("%d jobs (%d distinct documents) from %d clients; doc_tail_ms is p99", jobs, len(st.docs), dartdClients)
		o.note("jobs_per_s %.6g 1/s, job_p50_ms %.6g ms, job_p99_ms %.6g ms", o.metrics["docs_per_s"], o.metrics["doc_p50_ms"], o.metrics["doc_tail_ms"])
		o.note("recover_s %.6g s (replay of %d jobs, median of %d)", recoverS, history, dartdRecoveries)
		return o, nil
	}

	// Untraced on the set-up server, then traced on a fresh one.
	a0, g0 := memCounters()
	resA, _, _, _, err := st.measure(nil)
	if err != nil {
		return nil, err
	}
	a1, g1 := memCounters()
	st.check(o, resA)
	fresh, err := newDartdState(cfg, jobs)
	if err != nil {
		return nil, err
	}
	st.discard()
	st = fresh
	tr := newTracer()
	digestA := o.digest
	res, _, before, after, err := st.measure(tr)
	if err != nil {
		return nil, err
	}
	st.check(o, res)
	if o.digest != digestA {
		o.problem("traced digest %s differs from untraced digest %s", o.digest, digestA)
	}
	recoverS, rs, err := recoverStore(st.dir, history)
	if err != nil {
		return nil, err
	}
	var untraced time.Duration
	for _, r := range resA {
		untraced += r.latency
	}
	var submits, server []float64
	for _, s := range tr.spansNamed("service.submit") {
		submits = append(submits, ms(s.End-s.Start))
	}
	var wait, run time.Duration
	polls, bytes := 0, 0
	for _, r := range res {
		v := r.view
		if v.StartedAt != nil && v.FinishedAt != nil {
			server = append(server, ms(v.FinishedAt.Sub(v.SubmittedAt)))
			wait += v.StartedAt.Sub(v.SubmittedAt)
			run += v.FinishedAt.Sub(*v.StartedAt)
		}
		polls += r.polls
		bytes += r.bytes
	}
	n := float64(jobs)
	m := o.metrics
	m["service.submit_ms_p50"] = percentile(submits, 0.5)
	m["service.server_ms_p50"] = percentile(server, 0.5)
	m["service.server_ms_p99"] = percentile(server, 0.99)
	m["service.queue_wait_ms_mean"] = ms(wait) / n
	m["service.run_ms_mean"] = ms(run) / n
	m["service.polls_per_job"] = float64(polls) / n
	m["service.response_kb_per_job"] = float64(bytes) / 1024 / n
	hits := delta(before, after, "dartd_result_cache_hits_total")
	m["service.cache_hit_ratio"] = ratio(hits, hits+delta(before, after, "dartd_result_cache_misses_total"))
	m["service.retries"] = delta(before, after, "dartd_job_retries_total")
	m["store.appends_per_job"] = delta(before, after, "dart_store_appends_total") / n
	m["store.fsyncs_per_job"] = delta(before, after, "dart_store_fsyncs_total") / n
	m["store.wal_bytes_per_job"] = delta(before, after, "dart_store_append_bytes_total") / n
	m["store.snapshots"] = delta(before, after, "dart_store_snapshots_total")
	m["store.snapshot_bytes"] = after["dart_store_snapshot_bytes"]
	m["store.replay_records"] = float64(rs.Records)
	m["store.snapshot_jobs"] = float64(rs.SnapshotJobs)
	m["store.recover_s"] = recoverS
	m["obs.trace_overhead_share"] = ratio(float64(tr.total()-untraced), float64(untraced))
	m["obs.spans_dropped"] = delta(before, after, "dart_trace_spans_dropped_total")
	m["obs.events_dropped"] = delta(before, after, "dart_events_dropped_total")
	m["runtime.alloc_kb_per_doc"] = float64(a1-a0) / 1024 / n
	m["runtime.gc_cycles"] = float64(g1-g0) * 1000 / n
	o.note("%d jobs untraced on one server, then traced on a fresh one", jobs)
	if err := writeSpans(cfg, tr, o); err != nil {
		return nil, err
	}
	return o, nil
}
