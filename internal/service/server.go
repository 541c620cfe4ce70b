package service

import (
	"context"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"dart/internal/obs"
	"dart/internal/store"
)

// Config tunes a Server. The zero value gets sensible defaults: GOMAXPROCS
// workers, a 1024-job queue, a 60s per-job deadline, 3 attempts.
type Config struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueCapacity bounds pending jobs (0 = 1024).
	QueueCapacity int
	// JobTimeout is the default per-job deadline (0 = 60s).
	JobTimeout time.Duration
	// MaxAttempts bounds runs per job (0 = 3).
	MaxAttempts int
	// Backoff is the first retry delay (0 = 50ms).
	Backoff time.Duration
	// Runner overrides the job processor (tests; default PipelineRunner).
	Runner Runner
	// ResultCacheSize, when positive, serves repeated submissions of the
	// same (document, metadata, solver) triple from a bounded LRU of that
	// many finished results, with hit/miss counters in /metrics. 0
	// disables caching (every submission runs the pipeline).
	ResultCacheSize int
	// Tracer records one span tree per job, serves it on
	// GET /v1/jobs/{id}/trace and GET /debug/traces, and feeds the stage
	// latency histograms. Nil gets a default tracer (obs.Config{}).
	Tracer *obs.Tracer
	// Bus, when non-nil, is the live telemetry bus: job lifecycle,
	// queue-depth, span-completion, ledger and solver search-progress
	// events stream from it over GET /v1/events and
	// GET /v1/jobs/{id}/events, with per-job aggregates on
	// GET /v1/jobs/{id}/progress; solver and span events reach the bus
	// through the job's trace. Nil disables live events at zero cost.
	Bus *obs.Bus
	// Logger, when non-nil, emits structured request and job logs.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Store, when non-nil, persists every job state transition and is
	// replayed at construction: jobs pending or running at crash time are
	// re-enqueued, completed results are served without re-solving. Nil
	// keeps the queue memory-only.
	Store store.JobStore
	// StoreSnapshotEvery bounds log growth: after this many appends a
	// snapshot absorbs and truncates the log (0 = 256, negative disables
	// automatic snapshots). Ignored without Store.
	StoreSnapshotEvery int
}

// Server is the dartd service: queue + pool + metrics behind an HTTP API.
//
//	POST /v1/jobs                        submit a document (202, JobView)
//	GET  /v1/jobs                        list jobs (results omitted)
//	GET  /v1/jobs/{id}                   one job, result included when terminal
//	GET  /v1/jobs/{id}/trace             the job's finished span tree
//	GET  /v1/jobs/{id}/events            SSE: the job's events, replay then live (bus only)
//	GET  /v1/jobs/{id}/progress          live per-job progress aggregate (bus only)
//	GET  /v1/jobs/{id}/suggestions       suggestion records of a validation session
//	POST /v1/jobs/{id}/suggestions/{sid} accept/reject/revert one suggestion
//	GET  /v1/jobs/{id}/workbench         embedded operator workbench page
//	GET  /v1/events                      SSE firehose with kind filters (bus only)
//	GET  /debug/traces                   the N slowest recent traces
//	GET  /debug/pprof/                   runtime profiles (Config.EnablePprof only)
//	GET  /healthz                        liveness; 503 while draining
//	GET  /readyz                         readiness: replay done, pool started, queue accepting
//	GET  /metrics                        Prometheus text format
type Server struct {
	queue       *Queue
	pool        *Pool
	metrics     *Metrics
	tracer      *obs.Tracer
	bus         *obs.Bus
	logger      *slog.Logger
	enablePprof bool
	mux         *http.ServeMux
	draining    atomic.Bool
	started     atomic.Bool
	recovery    *RecoveryStats
}

// New wires a stopped server; call Start before serving. With a
// configured store it replays the durable history first, so New fails if
// the store cannot be read.
func New(cfg Config) (*Server, error) {
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.New(obs.Config{})
	}
	s := &Server{
		metrics:     NewMetrics(),
		tracer:      tracer,
		bus:         cfg.Bus,
		logger:      cfg.Logger,
		enablePprof: cfg.EnablePprof,
		mux:         http.NewServeMux(),
	}
	if cfg.Store == nil {
		s.queue = NewQueue(cfg.QueueCapacity)
	} else {
		snapEvery := cfg.StoreSnapshotEvery
		if snapEvery == 0 {
			snapEvery = 256
		}
		onStoreError := func(err error) {
			s.metrics.StoreError()
			if s.logger != nil {
				s.logger.Error("job store append failed", "error", err.Error())
			}
		}
		span := tracer.StartTrace("store.replay")
		queue, rs, err := RecoverQueue(cfg.QueueCapacity, cfg.Store, snapEvery, onStoreError)
		if err != nil {
			span.SetStr("error", err.Error())
			span.End()
			return nil, err
		}
		span.SetInt("records", rs.Records)
		span.SetInt("snapshot_jobs", rs.SnapshotJobs)
		span.SetInt("requeued", rs.Requeued)
		span.SetInt("completed", rs.Completed)
		span.End()
		s.queue = queue
		s.recovery = rs
		s.metrics.BindStore(cfg.Store.Stats)
		s.metrics.Recovered(rs.Requeued, rs.Completed, rs.Dropped)
		if cfg.Logger != nil {
			cfg.Logger.Info("job store recovered",
				"records", rs.Records, "snapshot_jobs", rs.SnapshotJobs,
				"requeued", rs.Requeued, "completed", rs.Completed,
				"dropped", rs.Dropped, "orphans", rs.Orphans,
				"duration_ms", rs.Duration.Milliseconds())
		}
	}
	run := cfg.Runner
	if run == nil {
		run = PipelineRunner(s.metrics)
	}
	encoded := encoding(run)
	if cfg.ResultCacheSize > 0 {
		encoded = cachingRunner(encoded, cfg.ResultCacheSize, s.metrics)
	}
	// The queue publishes job-state and depth events; the pool binds each
	// job's trace to the bus so solver/component/span events flow too.
	s.queue.bus = cfg.Bus
	s.pool = &Pool{
		Queue:   s.queue,
		Workers: cfg.Workers,
		Run:     run,
		Bus:     cfg.Bus,
		// Validation-session jobs need the Job handle (to publish their
		// ledger) and must bypass the result cache: their outcome depends
		// on live operator decisions, not the spec alone.
		RunJob: func(ctx context.Context, job *Job) (runResult, error) {
			if job.Spec.Validate {
				return encodeRun(s.runValidation(ctx, job))
			}
			return encoded(ctx, job.Spec)
		},
		Metrics:     s.metrics,
		JobTimeout:  cfg.JobTimeout,
		MaxAttempts: cfg.MaxAttempts,
		Backoff:     cfg.Backoff,
		Tracer:      tracer,
		Logger:      cfg.Logger,
	}
	s.metrics.Bind(s.queue.Depth, s.pool.workerCount())
	s.metrics.BindSuggestions(s.queue.OpenSuggestions)
	s.metrics.BindTracer(tracer.DroppedSpans)
	if cfg.Bus != nil {
		s.metrics.BindBus(cfg.Bus.DroppedByName)
	}
	s.routes()
	return s, nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	s.pool.Start()
	s.started.Store(true)
}

// Ready reports readiness: construction finished (store replay included),
// the pool is started, shutdown has not begun, and the queue can admit a
// submission.
func (s *Server) Ready() bool {
	return s.started.Load() && !s.draining.Load() && s.queue.Accepting()
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the registry (benchmarks and tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Queue exposes the job store (benchmarks and tests).
func (s *Server) Queue() *Queue { return s.queue }

// Tracer exposes the span recorder.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Bus exposes the live telemetry bus, nil when live events are off (tests).
func (s *Server) Bus() *obs.Bus { return s.bus }

// Recovery reports the boot-time store replay, nil without a store.
func (s *Server) Recovery() *RecoveryStats { return s.recovery }

// Shutdown drains gracefully: new submissions get 503 immediately, queued
// and in-flight jobs finish, workers exit. If ctx expires first, in-flight
// solves are cancelled and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.pool.Shutdown(ctx)
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }
