// Command dartd runs the DART acquisition-and-repair service: a concurrent
// job queue + worker pool around dart.Pipeline, with an HTTP API and
// Prometheus-format metrics.
//
// Usage:
//
//	dartd [-addr :8080] [-workers N] [-queue 1024]
//	      [-job-timeout 60s] [-attempts 3] [-drain-timeout 30s]
//	      [-result-cache 256] [-trace-buffer 256] [-trace-export t.jsonl]
//	      [-event-buffer 1024]
//	      [-store-dir /var/lib/dartd] [-store fsync|async] [-store-snapshot-every 256]
//	      [-pprof] [-log text|json]
//
// With -store-dir, every job state transition is persisted to a
// write-ahead log in that directory. On restart dartd replays the log:
// jobs that were pending or running when the process died are re-run,
// completed results are served without re-solving. -store picks the
// durability mode (fsync syncs every append; async leaves flushing to the
// OS and the graceful drain).
//
// API:
//
//	POST /v1/jobs             {"document": "...", "scenario": "cashbudget"} -> 202 {"id": "job-000001", ...}
//	GET  /v1/jobs/{id}        job status; includes the repair result when done
//	GET  /v1/jobs/{id}/trace  the job's finished span tree
//	GET  /v1/jobs             list all jobs
//	GET  /v1/jobs/{id}/suggestions        a validate:true job's suggestion queue + audit history
//	POST /v1/jobs/{id}/suggestions/{sid}  decide one suggestion: {"action": "accept"|"reject"|"revert", "seq": N, ...}
//	GET  /v1/jobs/{id}/workbench          embedded single-page operator workbench
//	GET  /v1/jobs/{id}/events  SSE: the job's live events, ring replay then tail (-event-buffer > 0)
//	GET  /v1/jobs/{id}/progress  live per-job progress aggregate (-event-buffer > 0)
//	GET  /v1/events           SSE firehose; ?kind=job,queue,solver,component,span,ledger filters,
//	                          ?job= filters, ?after_seq= resumes, ?replay=only closes after the ring
//	GET  /debug/traces        the N slowest recent traces
//	GET  /debug/pprof/        runtime profiles (-pprof only)
//	GET  /healthz             liveness (503 while draining)
//	GET  /readyz              readiness (store replayed, pool started, queue accepting)
//	GET  /metrics             Prometheus text format
//
// dartd always traces: every job's span tree is retained in a ring of
// -trace-buffer traces (at least 1) and is the one source of the stage
// latency histograms on /metrics. Live events need -event-buffer > 0; a
// job's trace carries its solver search progress and span completions
// onto the bus. cmd/dartstat renders the firehose as a live console;
// cmd/darttail pipes it as JSONL.
//
// SIGINT/SIGTERM drains gracefully: new submissions get 503, in-flight and
// queued jobs finish (bounded by -drain-timeout), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dart/internal/obs"
	"dart/internal/service"
	"dart/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dartd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queueCap     = flag.Int("queue", 1024, "pending-job queue capacity")
		jobTimeout   = flag.Duration("job-timeout", 60*time.Second, "default per-job deadline")
		attempts     = flag.Int("attempts", 3, "max runs per job (retries are attempts-1)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		resultCache  = flag.Int("result-cache", 256, "serve repeated (document, metadata, solver) submissions from an LRU of this many results; 0 disables")
		traceBuffer  = flag.Int("trace-buffer", 256, "retain the last N job traces for /v1/jobs/{id}/trace and /debug/traces (at least 1)")
		traceExport  = flag.String("trace-export", "", "append every finished trace to this JSONL file (one span per line)")
		eventBuffer  = flag.Int("event-buffer", 1024, "retain the last N telemetry events for SSE replay on /v1/events and /v1/jobs/{id}/events; 0 disables live events")
		enablePprof  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logFormat    = flag.String("log", "text", "structured log format: text or json")
		storeDir     = flag.String("store-dir", "", "persist jobs to a write-ahead log in this directory and replay it on boot; empty keeps jobs in memory only")
		storeMode    = flag.String("store", "fsync", "store durability: fsync (sync every append) or async (OS-buffered; flushed on drain)")
		storeSnap    = flag.Int("store-snapshot-every", 256, "absorb the log into a snapshot after this many appends; negative disables automatic snapshots")
	)
	flag.Parse()

	if *logFormat != "text" && *logFormat != "json" {
		return fmt.Errorf("-log must be text or json, got %q", *logFormat)
	}
	logger := obs.NewLogger(os.Stderr, *logFormat)

	if *traceBuffer < 1 {
		return fmt.Errorf("-trace-buffer must be at least 1, got %d", *traceBuffer)
	}
	traceCfg := obs.Config{Capacity: *traceBuffer}
	if *traceExport != "" {
		f, err := os.OpenFile(*traceExport, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening trace export: %w", err)
		}
		defer f.Close()
		traceCfg.Export = f
	}
	tracer := obs.New(traceCfg)

	var bus *obs.Bus
	if *eventBuffer > 0 {
		bus = obs.NewBus(obs.BusConfig{Ring: *eventBuffer})
	}

	var jobStore store.JobStore
	if *storeDir != "" {
		if *storeMode != "fsync" && *storeMode != "async" {
			return fmt.Errorf("-store must be fsync or async, got %q", *storeMode)
		}
		wal, err := store.OpenWAL(*storeDir, store.WALOptions{SyncEveryAppend: *storeMode == "fsync"})
		if err != nil {
			return fmt.Errorf("opening job store: %w", err)
		}
		defer wal.Close()
		jobStore = wal
	}

	srv, err := service.New(service.Config{
		Workers:            *workers,
		QueueCapacity:      *queueCap,
		JobTimeout:         *jobTimeout,
		MaxAttempts:        *attempts,
		ResultCacheSize:    *resultCache,
		Tracer:             tracer,
		Bus:                bus,
		Logger:             logger,
		EnablePprof:        *enablePprof,
		Store:              jobStore,
		StoreSnapshotEvery: *storeSnap,
	})
	if err != nil {
		return fmt.Errorf("recovering job store: %w", err)
	}
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "version", service.Version,
			"events", bus != nil, "pprof", *enablePprof)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-sigCtx.Done():
	}

	logger.Info("draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the pool first so /healthz flips to 503 and queued jobs finish,
	// then close the listener.
	poolErr := srv.Shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return err
	}
	if poolErr != nil {
		return fmt.Errorf("drain incomplete: %w", poolErr)
	}
	if err := tracer.ExportErr(); err != nil {
		logger.Error("trace export", "error", err.Error())
	}
	logger.Info("drained cleanly")
	return nil
}
