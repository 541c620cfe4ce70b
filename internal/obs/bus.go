// Live telemetry bus.
//
// The span tracer (obs.go) records what happened after it happened: a
// trace becomes visible only when its root span ends. The Bus is the
// complementary live channel — a bounded publish/subscribe fan-out of
// small, flat, typed events (job state changes, queue depth, solver
// incumbent/bound/gap timelines, component aggregation, span completions,
// ledger decisions) that dartd streams over SSE while a job is still
// grinding through branch and bound.
//
// Three properties shape the design:
//
//   - Publish never blocks and the publisher never waits for a reader. A
//     subscriber that cannot keep up loses events against its drop
//     counter (exposed as dart_events_dropped_total{subscriber}); the
//     solver is never slowed by a stalled SSE connection.
//   - The disabled path costs nothing. Event is a flat value struct (no
//     maps, no pointers), every Publish entry point is nil-receiver safe,
//     and a Span without a live binding drops the event after two nil
//     checks — so instrumented hot paths stay 0 allocs/op when the bus is
//     off, exactly like the tracer (TestBusDisabledZeroAllocs).
//   - Replay then live. The bus retains a bounded ring of recent events;
//     Subscribe atomically snapshots the ring and registers the live
//     channel, so a consumer sees a gapless, strictly seq-ordered stream:
//     ring replay first, then live events with larger sequence numbers
//     (minus any it was too slow for, which are counted, never silent).
//
// The bus also folds every event into a per-job progress aggregate
// (JobProgress) at publish time, so GET /v1/jobs/{id}/progress is a map
// lookup, not a replay.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies bus events; SSE consumers filter on it.
type EventKind string

const (
	// KindJob marks job lifecycle transitions (Name "state").
	KindJob EventKind = "job"
	// KindQueue marks queue-depth changes (Name "depth").
	KindQueue EventKind = "queue"
	// KindSolver marks branch-and-bound search telemetry: Name
	// "incumbent" (a new best solution), "progress" (periodic
	// bound/gap/node-rate), "done" (search finished).
	KindSolver EventKind = "solver"
	// KindComponent marks per-job component aggregation from the repair
	// layer: Name "plan" (total violated components) and "done" (running
	// solved count).
	KindComponent EventKind = "component"
	// KindSpan marks span completions (Name is the span name, Value its
	// duration in milliseconds).
	KindSpan EventKind = "span"
	// KindLedger marks suggestion-ledger transitions of validation
	// sessions (Name is the transition kind, State the post-transition
	// suggestion state).
	KindLedger EventKind = "ledger"
)

// EventKinds lists every kind, in a stable order.
var EventKinds = []EventKind{KindJob, KindQueue, KindSolver, KindComponent, KindSpan, KindLedger}

// Event is one telemetry event. It is deliberately a flat value struct —
// no maps, slices or pointers — so constructing and publishing one
// allocates nothing: a publish is a stack literal, one lock, and value
// copies into the ring and subscriber channels.
//
// Seq and UnixNano are stamped by the bus at publish time; Seq is a
// strictly increasing total order over all events, which is what makes
// ring-replay-then-live-tail gapless and deduplicatable. The remaining
// fields are payload; which are meaningful depends on (Kind, Name). Gap
// is serialized unconditionally because 0 is a meaningful value (a
// proven-optimal search); the other numerics omit their zero values.
type Event struct {
	Seq      uint64    `json:"seq"`
	UnixNano int64     `json:"unix_nano"`
	Kind     EventKind `json:"kind"`
	Name     string    `json:"name"`
	// JobID and TraceID are stamped by Span.Publish from the trace's live
	// binding; service-layer publishers set JobID directly.
	JobID   string `json:"job_id,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	// Scope locates the event within the job, e.g. "component:2" for
	// solver telemetry of one connected component or "suggestion:7" for a
	// ledger decision.
	Scope string `json:"scope,omitempty"`
	// State is a lifecycle or outcome state (job state, solver status,
	// suggestion state).
	State string `json:"state,omitempty"`
	// Value is a generic numeric payload (span duration in ms, suggestion
	// confidence, ...), per the event's Name.
	Value float64 `json:"value,omitempty"`
	// Solver search telemetry.
	Incumbent   float64 `json:"incumbent,omitempty"`
	Bound       float64 `json:"bound,omitempty"`
	Gap         float64 `json:"gap"`
	Nodes       int64   `json:"nodes,omitempty"`
	NodesPerSec float64 `json:"nodes_per_sec,omitempty"`
	// Component / generic progress counters.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Depth is the pending-job queue depth at publish time.
	Depth int `json:"depth,omitempty"`
}

// BusConfig tunes a Bus.
type BusConfig struct {
	// Ring bounds the replay ring (default 1024 events); the oldest event
	// is evicted first.
	Ring int
	// Buffer is the default per-subscriber channel capacity (default 256).
	Buffer int
	// Now overrides the clock (tests only; default time.Now).
	Now func() time.Time
}

// Bus is the live telemetry fan-out. A nil *Bus no-ops everywhere, so the
// disabled path needs no branches beyond nil checks.
type Bus struct {
	mu     sync.Mutex
	ring   []Event // circular replay buffer
	head   int     // next write slot
	size   int     // events currently retained
	seq    uint64
	subs   map[*Subscriber]struct{}
	drops  map[string]uint64 // cumulative drops per subscriber name
	buffer int
	now    func() time.Time
	prog   *ProgressFold // per-job live aggregate
}

// progressCap bounds the per-job progress aggregates the bus retains;
// beyond it, the oldest terminal job is evicted first.
const progressCap = 512

// NewBus creates a bus.
func NewBus(cfg BusConfig) *Bus {
	if cfg.Ring <= 0 {
		cfg.Ring = 1024
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 256
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Bus{
		ring:   make([]Event, cfg.Ring),
		subs:   make(map[*Subscriber]struct{}),
		drops:  make(map[string]uint64),
		buffer: cfg.Buffer,
		now:    now,
		prog:   NewProgressFold(progressCap),
	}
}

// Publish stamps ev with the next sequence number and the current time,
// retains it in the replay ring, folds it into the per-job progress
// aggregate, and offers it to every subscriber without blocking: a full
// subscriber channel drops the event against that subscriber's counter.
// Publish on a nil bus is a no-op and allocates nothing.
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	ev.UnixNano = b.now().UnixNano()
	b.ring[b.head] = ev
	b.head = (b.head + 1) % len(b.ring)
	if b.size < len(b.ring) {
		b.size++
	}
	b.prog.Observe(ev)
	for sub := range b.subs {
		select {
		case sub.ch <- ev:
		default:
			b.drops[sub.name]++
			sub.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// Seq returns the sequence number of the most recently published event.
func (b *Bus) Seq() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// replayLocked appends the retained ring events, oldest first, to dst.
func (b *Bus) replayLocked(dst []Event) []Event {
	start := b.head - b.size
	if start < 0 {
		start += len(b.ring)
	}
	for i := 0; i < b.size; i++ {
		dst = append(dst, b.ring[(start+i)%len(b.ring)])
	}
	return dst
}

// Replay returns a copy of the retained events, oldest first.
func (b *Bus) Replay() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.replayLocked(make([]Event, 0, b.size))
}

// Subscriber is one registered consumer: a bounded channel the bus offers
// events to without ever blocking.
type Subscriber struct {
	name    string
	ch      chan Event
	bus     *Bus
	dropped atomic.Uint64
	closed  bool
}

// Subscribe atomically snapshots the replay ring and registers a live
// subscriber: every event with a larger sequence number than the last
// replayed one is delivered on C (or counted as dropped), so replay+live
// is gapless. name labels the subscriber's drop counter in /metrics and
// must come from a small fixed set ("firehose", "job", ...); buffer <= 0
// selects the bus default.
func (b *Bus) Subscribe(name string, buffer int) (*Subscriber, []Event) {
	if b == nil {
		return nil, nil
	}
	if buffer <= 0 {
		buffer = b.buffer
	}
	sub := &Subscriber{name: name, ch: make(chan Event, buffer), bus: b}
	b.mu.Lock()
	defer b.mu.Unlock()
	replay := b.replayLocked(make([]Event, 0, b.size))
	b.subs[sub] = struct{}{}
	if _, ok := b.drops[name]; !ok {
		b.drops[name] = 0
	}
	return sub, replay
}

// C is the subscriber's live event channel. It is closed by Close.
func (s *Subscriber) C() <-chan Event {
	if s == nil {
		return nil
	}
	return s.ch
}

// Dropped returns how many events this subscriber was too slow for.
func (s *Subscriber) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Close unregisters the subscriber and closes its channel. Buffered
// events remain readable; Close is idempotent.
func (s *Subscriber) Close() {
	if s == nil {
		return
	}
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(s.bus.subs, s)
	// Publish sends only under bus.mu, so closing here cannot race a send.
	close(s.ch)
}

// DroppedByName returns the cumulative per-subscriber-name drop counters
// (spanning closed subscribers), for dart_events_dropped_total.
func (b *Bus) DroppedByName() map[string]uint64 {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]uint64, len(b.drops))
	for k, v := range b.drops {
		out[k] = v
	}
	return out
}

// JobProgress is the live aggregate of one job's telemetry: what the
// progress endpoint serves and dartstat renders. WorstGap is the largest
// optimality gap across the job's components still being searched; Gap,
// Incumbent, Bound and NodesPerSec reflect the freshest solver event.
type JobProgress struct {
	JobID           string  `json:"job_id"`
	State           string  `json:"state,omitempty"`
	ComponentsTotal int     `json:"components_total,omitempty"`
	ComponentsDone  int     `json:"components_done,omitempty"`
	Nodes           int64   `json:"nodes,omitempty"`
	NodesPerSec     float64 `json:"nodes_per_sec,omitempty"`
	Incumbent       float64 `json:"incumbent,omitempty"`
	Bound           float64 `json:"bound,omitempty"`
	Gap             float64 `json:"gap"`
	WorstGap        float64 `json:"worst_gap"`
	LastSeq         uint64  `json:"last_seq"`
	UpdatedUnixNano int64   `json:"updated_unix_nano"`
}

// ProgressFold folds events into one JobProgress per job. It is the one
// fold behind both the progress endpoint (the Bus keeps one under its
// lock) and dartstat's job table. It retains at most a fixed number of
// jobs: beyond it the oldest terminal job is evicted first; with none
// terminal, the oldest. A ProgressFold is not safe for concurrent use.
type ProgressFold struct {
	limit int
	jobs  map[string]*jobProgress
	order []string // job IDs, oldest first (eviction)
}

// jobProgress is the internal fold state behind one JobProgress.
type jobProgress struct {
	JobProgress
	terminal   bool
	scopeGaps  map[string]float64 // open searches only; keyed by event scope
	scopeNodes map[string]int64   // cumulative nodes per search scope
}

// NewProgressFold returns a fold retaining at most limit jobs.
func NewProgressFold(limit int) *ProgressFold {
	return &ProgressFold{limit: limit, jobs: make(map[string]*jobProgress)}
}

// Observe folds one event into its job's aggregate. Nodes sums the
// latest count of every search scope (one per solved component); events
// without a job ID are ignored.
func (f *ProgressFold) Observe(ev Event) {
	if ev.JobID == "" {
		return
	}
	jp := f.jobs[ev.JobID]
	if jp == nil {
		jp = &jobProgress{JobProgress: JobProgress{JobID: ev.JobID, Gap: 1, WorstGap: 1}}
		f.jobs[ev.JobID] = jp
		f.order = append(f.order, ev.JobID)
		f.evict()
	}
	jp.LastSeq = ev.Seq
	jp.UpdatedUnixNano = ev.UnixNano
	switch ev.Kind {
	case KindJob:
		if ev.Name == "state" {
			jp.State = ev.State
			jp.terminal = ev.State == "succeeded" || ev.State == "failed" || ev.State == "deadline_exceeded"
			if jp.terminal {
				// The search is over; no component is "still solving".
				jp.scopeGaps = nil
				jp.WorstGap = 0
			}
		}
	case KindComponent:
		switch ev.Name {
		case "plan":
			jp.ComponentsTotal = ev.Total
			jp.ComponentsDone = ev.Done
		case "done":
			jp.ComponentsDone = ev.Done
			if ev.Total > jp.ComponentsTotal {
				jp.ComponentsTotal = ev.Total
			}
		}
	case KindSolver:
		jp.Incumbent = ev.Incumbent
		jp.Bound = ev.Bound
		jp.Gap = ev.Gap
		jp.NodesPerSec = ev.NodesPerSec
		if jp.scopeNodes == nil {
			jp.scopeNodes = make(map[string]int64)
		}
		jp.scopeNodes[ev.Scope] = ev.Nodes
		var nodes int64
		for _, n := range jp.scopeNodes {
			nodes += n
		}
		jp.Nodes = nodes
		if ev.Name == "done" {
			delete(jp.scopeGaps, ev.Scope)
		} else {
			if jp.scopeGaps == nil {
				jp.scopeGaps = make(map[string]float64)
			}
			jp.scopeGaps[ev.Scope] = ev.Gap
		}
		worst := 0.0
		for _, g := range jp.scopeGaps {
			if g > worst {
				worst = g
			}
		}
		jp.WorstGap = worst
	}
}

// evict bounds the fold: beyond its limit the oldest terminal aggregate
// goes first; with none terminal, the oldest.
func (f *ProgressFold) evict() {
	for len(f.jobs) > f.limit {
		victim := -1
		for i, id := range f.order {
			if f.jobs[id].terminal {
				victim = i
				break
			}
		}
		if victim < 0 {
			victim = 0
		}
		delete(f.jobs, f.order[victim])
		f.order = append(f.order[:victim], f.order[victim+1:]...)
	}
}

// Get returns the aggregate of one job, if any event for it was observed.
func (f *ProgressFold) Get(jobID string) (JobProgress, bool) {
	jp, ok := f.jobs[jobID]
	if !ok {
		return JobProgress{}, false
	}
	return jp.JobProgress, true
}

// All returns the retained aggregates, oldest job first.
func (f *ProgressFold) All() []JobProgress {
	out := make([]JobProgress, 0, len(f.order))
	for _, id := range f.order {
		out = append(out, f.jobs[id].JobProgress)
	}
	return out
}

// Progress returns the live aggregate of one job, if any event for it has
// been published.
func (b *Bus) Progress(jobID string) (JobProgress, bool) {
	if b == nil {
		return JobProgress{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.prog.Get(jobID)
}

// AllProgress returns the retained per-job aggregates in job-ID order.
func (b *Bus) AllProgress() []JobProgress {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	out := b.prog.All()
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}
