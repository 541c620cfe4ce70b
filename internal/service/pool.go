package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"time"

	"dart"
	"dart/internal/metadata"
	"dart/internal/obs"
	"dart/internal/scenario"
)

// Runner processes one job spec to a wire result. The default is
// PipelineRunner; tests inject slow or flaky runners.
type Runner func(ctx context.Context, spec JobSpec) (*ResultJSON, error)

// runResult is a successful run's result as its job keeps it: encoded
// once, with the encoder settings of writeJSON, plus the totals metrics
// count. A cache hit shares the bytes of the run that filled the entry.
type runResult struct {
	encoded    []byte
	violations int
	updates    int
}

// encodeRun encodes a run's result; a nil result stays empty. A result
// that does not encode fails the run.
func encodeRun(res *ResultJSON, err error) (runResult, error) {
	if res == nil {
		return runResult{}, err
	}
	b, encErr := marshalJSON(res)
	if encErr != nil {
		return runResult{}, errors.Join(err, fmt.Errorf("service: encoding the result: %w", encErr))
	}
	out := runResult{encoded: b}
	if res.Acquisition != nil {
		out.violations = len(res.Acquisition.Violations)
	}
	if res.Repair != nil {
		out.updates = res.Repair.Card
	}
	return out, err
}

// encodedRunner is a Runner whose result comes encoded.
type encodedRunner func(ctx context.Context, spec JobSpec) (runResult, error)

// encoding turns a Runner into an encodedRunner.
func encoding(run Runner) encodedRunner {
	return func(ctx context.Context, spec JobSpec) (runResult, error) {
		return encodeRun(run(ctx, spec))
	}
}

// transientError marks an error worth retrying (a failure the pool may
// recover from by re-running the attempt).
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so the pool retries it (with backoff, up to the
// attempt bound).
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// Pool runs jobs from a Queue over a fixed set of workers. Each job gets a
// per-job context deadline, bounded retries with exponential backoff for
// transient failures, and a terminal state recorded in the queue's store.
type Pool struct {
	// Queue supplies the jobs (required).
	Queue *Queue
	// Workers is the worker count; 0 scales with GOMAXPROCS.
	Workers int
	// Run processes one job (default PipelineRunner(Metrics)).
	Run Runner
	// RunJob, when non-nil, overrides Run with a job-aware processor whose
	// result comes encoded; the server routes every job through it, so
	// that validation-session jobs get the Job handle they publish their
	// suggestion ledger on and repeats get the result cache's bytes.
	RunJob func(ctx context.Context, job *Job) (runResult, error)
	// Metrics receives counters and latencies (optional).
	Metrics *Metrics
	// JobTimeout is the default per-job deadline (default 60s); a job's
	// TimeoutMS overrides it.
	JobTimeout time.Duration
	// MaxAttempts bounds runs per job including the first (default 3).
	MaxAttempts int
	// Backoff is the first retry delay, doubled per attempt (default 50ms).
	Backoff time.Duration
	// Tracer, when non-nil, records one trace per job: a root "job" span
	// with every pipeline stage, solved component, and validation iteration
	// beneath it. The job's "stage.*" spans are the only source of the
	// stage latency histograms. Nil disables tracing and those histograms.
	Tracer *obs.Tracer
	// Bus, when non-nil (and with a Tracer configured), binds each job's
	// trace to the live telemetry bus, so solver search progress, component
	// aggregation, and span completions stream while the job runs.
	Bus *obs.Bus
	// Logger, when non-nil, emits one structured line per finished job,
	// keyed by job and trace IDs.
	Logger *slog.Logger

	wg      sync.WaitGroup
	ctx     context.Context
	cancel  context.CancelFunc
	started bool
}

// workerCount resolves the configured worker count.
func (p *Pool) workerCount() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Start launches the workers. It must be called once.
func (p *Pool) Start() {
	if p.started {
		panic("service: pool started twice")
	}
	p.started = true
	if p.Run == nil {
		p.Run = PipelineRunner(p.Metrics)
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	for i := 0; i < p.workerCount(); i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			//dartvet:allow ctxloop -- worker drains until the queue channel closes; per-job cancellation lives in runJob
			for job := range p.Queue.ch {
				p.runJob(job)
			}
		}()
	}
}

// Shutdown drains gracefully: the queue stops accepting submissions,
// workers finish the backlog, and Shutdown returns when they exit and
// the job store is flushed. If ctx expires first, in-flight job contexts
// are cancelled and Shutdown returns ctx.Err() once the workers wind
// down. Either way it waits for an in-flight snapshot before the flush,
// so the store can be closed as soon as Shutdown returns.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.Queue.Close()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		p.cancel()
		// Workers are gone, so no append can start another snapshot. Let
		// the one in flight finish, then flush the job store so a clean
		// drain never depends on replaying unsynced frames after the next
		// boot.
		p.Queue.waitSnapshot()
		if err := p.Queue.SyncStore(); err != nil {
			return fmt.Errorf("service: syncing job store on drain: %w", err)
		}
		return nil
	case <-ctx.Done():
		p.cancel() // abort in-flight solves
		<-done
		p.Queue.waitSnapshot()
		if err := p.Queue.SyncStore(); err != nil {
			return errors.Join(ctx.Err(), err)
		}
		return ctx.Err()
	}
}

// jobTimeout resolves the deadline for one spec.
func (p *Pool) jobTimeout(spec JobSpec) time.Duration {
	if spec.TimeoutMS > 0 {
		return time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	if p.JobTimeout > 0 {
		return p.JobTimeout
	}
	return 60 * time.Second
}

// runJob drives one job to a terminal state.
func (p *Pool) runJob(job *Job) {
	ctx, cancel := context.WithTimeout(p.ctx, p.jobTimeout(job.Spec))
	defer cancel()

	// Root span of the job's trace: every pipeline stage, component solve,
	// and validation iteration nests beneath it via the job context.
	span := p.Tracer.StartTrace("job")
	if span != nil {
		span.SetStr("job_id", job.ID)
		span.SetStr("scenario", job.Spec.Scenario)
		span.SetStr("solver", job.Spec.Solver)
		span.Live(p.Bus, job.ID)
		ctx = obs.ContextWithSpan(ctx, span)
		p.Queue.setTrace(job, span.TraceID())
	}

	maxAttempts := p.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	backoff := p.Backoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}

	start := time.Now()
	var res runResult
	var err error
	attempts := 0
	for attempt := 1; ; attempt++ {
		attempts = attempt
		if wait, first := p.Queue.setRunning(job); first && p.Metrics != nil {
			p.Metrics.QueueWait(wait)
		}
		if p.RunJob != nil {
			res, err = p.RunJob(ctx, job)
		} else {
			res, err = encodeRun(p.Run(ctx, job.Spec))
		}
		if err == nil || !IsTransient(err) || attempt >= maxAttempts || ctx.Err() != nil {
			break
		}
		if p.Metrics != nil {
			p.Metrics.Retry()
		}
		span.Event("retry")
		if !sleepCtx(ctx, backoff) {
			break
		}
		backoff *= 2
	}

	state := StateSucceeded
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded), ctx.Err() == context.DeadlineExceeded:
		state = StateDeadlineExceeded
	case errors.Is(err, context.Canceled) && p.ctx.Err() != nil:
		// Forced shutdown cancelled the in-flight solve.
		state = StateFailed
		err = fmt.Errorf("service: shutdown aborted job: %w", err)
	default:
		state = StateFailed
	}
	// Metrics first: once the job is terminal a client may read /metrics
	// and must find the job counted. Every attempt's stage spans have
	// ended by now, so retried stages count once per attempt.
	if p.Metrics != nil {
		p.Metrics.FoldSpans(span.Ended())
		p.Metrics.JobFinished(state, time.Since(start), res.violations, res.updates)
	}
	p.Queue.finish(job, state, res.encoded, err)
	span.SetStr("state", string(state))
	span.SetInt("attempts", attempts)
	if err != nil {
		span.SetStr("error", err.Error())
	}
	span.End()
	if p.Logger != nil {
		l := p.Logger.With("job_id", job.ID, "state", string(state),
			"attempts", attempts, "duration_ms", time.Since(start).Milliseconds())
		if span != nil {
			l = l.With("trace_id", span.TraceID())
		}
		if err != nil {
			l.Error("job finished", "error", err.Error())
		} else {
			l.Info("job finished")
		}
	}
}

// sleepCtx sleeps for d or until ctx is done; it reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// ResolveMetadata turns a job spec into parsed designer metadata: inline
// metadata wins, otherwise the named built-in scenario.
func ResolveMetadata(spec JobSpec) (*metadata.Metadata, error) {
	if spec.Metadata != "" {
		return metadata.Parse(spec.Metadata)
	}
	return scenario.Named(spec.Scenario)
}

// PipelineRunner returns the production Runner: it resolves the spec's
// metadata and solver, runs Acquire→Repair under the job context, and
// encodes the result for the wire. Solver iteration-limit failures are
// marked transient — centralizing the retry classification here lets later
// PRs escalate node budgets per attempt; everything else — parse errors,
// infeasibility, context expiry — is permanent.
func PipelineRunner(m *Metrics) Runner {
	return func(ctx context.Context, spec JobSpec) (*ResultJSON, error) {
		p, err := newPipeline(spec)
		if err != nil {
			return nil, err
		}
		acq, err := p.AcquireContext(ctx, spec.Document)
		if err != nil {
			return nil, err
		}
		return repairJob(ctx, p, acq, m)
	}
}

// newPipeline resolves a spec's metadata and solver into a pipeline.
func newPipeline(spec JobSpec) (*dart.Pipeline, error) {
	md, err := ResolveMetadata(spec)
	if err != nil {
		return nil, err
	}
	solver, err := dart.SolverNamed(spec.Solver)
	if err != nil {
		return nil, err
	}
	return &dart.Pipeline{Metadata: md, Solver: solver}, nil
}

// repairJob runs the repairing module of one job, automatic or
// validation session alike, and counts its solver work on m (when
// non-nil). Solver iteration-limit failures come back Transient.
func repairJob(ctx context.Context, p *dart.Pipeline, acq *dart.Acquisition, m *Metrics) (*ResultJSON, error) {
	res, err := p.RepairContext(ctx, acq)
	if err != nil {
		if isIterLimit(err) {
			return nil, Transient(err)
		}
		return nil, err
	}
	if m != nil {
		m.Components(res.ComponentsSolved, res.ComponentsReused)
		m.BBNodes(res.SolverNodes)
	}
	return EncodeResult(res), nil
}

// isIterLimit detects the solver's node/iteration budget exhaustion, the
// one failure mode re-running can plausibly fix.
func isIterLimit(err error) bool {
	return strings.Contains(err.Error(), "iteration-limit")
}
