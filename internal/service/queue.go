package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"dart/internal/obs"
	"dart/internal/repair"
	"dart/internal/store"
)

// JobState is the lifecycle state of one submitted job.
type JobState string

const (
	// StateQueued means the job is waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning means a worker is processing the job.
	StateRunning JobState = "running"
	// StateSucceeded means the job finished with a result.
	StateSucceeded JobState = "succeeded"
	// StateFailed means the job exhausted its attempts with an error.
	StateFailed JobState = "failed"
	// StateDeadlineExceeded means the per-job deadline cancelled the run.
	StateDeadlineExceeded JobState = "deadline_exceeded"
)

// JobStates lists every state in lifecycle order; metrics iterate it so
// zero-valued counters are still exposed.
var JobStates = []JobState{StateQueued, StateRunning, StateSucceeded, StateFailed, StateDeadlineExceeded}

// JobSpec is the submission payload of POST /v1/jobs.
type JobSpec struct {
	// Document is the input document (HTML or scan text; required).
	Document string `json:"document"`
	// Scenario names a built-in metadata bundle (cashbudget, catalog,
	// balancesheet). Ignored when Metadata is set.
	Scenario string `json:"scenario,omitempty"`
	// Metadata is an inline designer metadata file.
	Metadata string `json:"metadata,omitempty"`
	// Solver selects the repair solver (default milp).
	Solver string `json:"solver,omitempty"`
	// SolverWorkers is accepted and ignored: it once set a branch-and-bound
	// worker budget, and older clients and WAL logs still carry
	// solver_workers. Branch and bound is sequential, and the field changes
	// nothing. It stays so that strict decoding admits those bodies and
	// records, and it round-trips unchanged.
	SolverWorkers int `json:"solver_workers,omitempty"`
	// TimeoutMS overrides the server's per-job deadline, in milliseconds.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Validate runs the job as an interactive validation session: the
	// computed repair becomes a suggestion queue the operator works through
	// GET/POST /v1/jobs/{id}/suggestions (or the workbench page), and the
	// job only finishes once every suggestion is decided.
	Validate bool `json:"validate,omitempty"`
}

// Job is one unit of acquisition-and-repair work. All fields are guarded by
// the owning Queue's mutex; read them through views.
type Job struct {
	ID          string
	Spec        JobSpec
	State       JobState
	Attempts    int
	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
	Error       string
	// TraceID links the job to its trace (empty until a worker starts it,
	// or when the pool runs without a tracer).
	TraceID string
	// Ledger is the live suggestion ledger of a running validation session
	// (nil otherwise); suggestion handlers decide against it.
	Ledger *repair.Ledger
	// RepairEvents is the job's durable suggestion-event history, replayed
	// from the store on recovery and appended to as the session runs. A
	// resumed session restores its ledger from this slice.
	RepairEvents []repair.Event

	// result is the terminal result, encoded once when the job finishes,
	// with the encoder settings of writeJSON (nil when there is none). The
	// same bytes are the RecResult frame's blob, the result member of the
	// job's snapshot entry and of GET /v1/jobs/{id}; Get decodes them on
	// demand. The bytes are never modified once set.
	result []byte
	// head is the job's snapshot entry without its result, encoded once
	// the job is terminal (nil before that). The snapshot that seals the
	// job splices head and result instead of encoding the job again, and
	// then releases head. Once head is set Spec.Document is cleared, as
	// no run reads it again.
	head []byte
}

// JobView is a consistent JSON snapshot of one job.
type JobView struct {
	ID          string      `json:"id"`
	State       JobState    `json:"state"`
	Scenario    string      `json:"scenario,omitempty"`
	Solver      string      `json:"solver,omitempty"`
	Attempts    int         `json:"attempts"`
	SubmittedAt time.Time   `json:"submitted_at"`
	StartedAt   *time.Time  `json:"started_at,omitempty"`
	FinishedAt  *time.Time  `json:"finished_at,omitempty"`
	Error       string      `json:"error,omitempty"`
	Result      *ResultJSON `json:"result,omitempty"`
	TraceID     string      `json:"trace_id,omitempty"`
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateDeadlineExceeded
}

var (
	// ErrDraining rejects submissions after shutdown began (HTTP 503).
	ErrDraining = errors.New("service: server is draining")
	// ErrQueueFull rejects submissions exceeding the queue bound (HTTP 503).
	ErrQueueFull = errors.New("service: job queue is full")
)

// Queue is the bounded job queue plus the job store: submissions append to
// a buffered channel workers consume, and every job (pending or finished)
// stays in the store for polling. Closing the queue rejects further
// submissions but leaves already-queued jobs for the drain to finish.
type Queue struct {
	mu    sync.Mutex
	jobs  map[string]*Job
	order []string
	// unsealed holds the jobs no snapshot has sealed yet, in submission
	// order: the live ones and those finished since the last snapshot.
	// Snapshots walk it instead of order.
	unsealed []*Job
	ch       chan *Job
	closed   bool
	nextID   int
	// store, when non-nil, receives one record per queue mutation; all
	// appends happen under mu, so the store sees a serialized history.
	store store.JobStore
	// snapshotEvery bounds log growth: a snapshot absorbs the log after
	// this many appends (0 disables automatic snapshots).
	snapshotEvery int
	// onStoreError observes non-fatal persistence failures; it runs under
	// mu and must not call back into the queue.
	onStoreError func(error)
	// lastSeq is the sequence number of the queue's last append: the
	// state under mu reflects every record through it, so a snapshot
	// captured under mu covers exactly that much of the log.
	lastSeq uint64
	// snapDone is non-nil while a snapshot is in flight and is closed
	// when it finishes.
	snapDone chan struct{}
	// bus, when non-nil, receives one job-state event per lifecycle
	// transition plus queue-depth events. Publishes happen under mu on
	// purpose: the bus-visible event order then matches the transition
	// order exactly, and Bus.Publish never blocks (slow subscribers drop),
	// so holding mu across it is safe.
	bus *obs.Bus
}

// NewQueue creates a queue holding at most capacity pending jobs
// (default 1024).
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Queue{
		jobs: make(map[string]*Job),
		ch:   make(chan *Job, capacity),
	}
}

// Submit registers a new queued job. It fails with ErrDraining after Close
// and ErrQueueFull when the pending bound is reached.
func (q *Queue) Submit(spec JobSpec) (JobView, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return JobView{}, ErrDraining
	}
	// Capacity check before the durable append: every sender holds mu and
	// workers only drain, so len < cap guarantees the later send cannot
	// block. The job must be durable before it is visible anywhere.
	if len(q.ch) == cap(q.ch) {
		return JobView{}, ErrQueueFull
	}
	q.nextID++
	job := &Job{
		ID:          fmt.Sprintf("job-%06d", q.nextID),
		Spec:        spec,
		State:       StateQueued,
		SubmittedAt: time.Now(),
	}
	if err := q.appendSubmitLocked(job); err != nil {
		q.nextID--
		return JobView{}, fmt.Errorf("service: persisting submission: %w", err)
	}
	q.ch <- job
	q.jobs[job.ID] = job
	q.order = append(q.order, job.ID)
	q.unsealed = append(q.unsealed, job)
	q.maybeSnapshotLocked()
	q.publishJobLocked(job)
	return viewLocked(job), nil
}

// Get returns a snapshot of the identified job, including its result,
// which it decodes from the job's encoded result.
func (q *Queue) Get(id string) (JobView, bool) {
	v, result, ok := q.getEncoded(id)
	if ok && result != nil {
		var res ResultJSON
		if err := json.Unmarshal(result, &res); err == nil {
			v.Result = &res
		}
	}
	return v, ok
}

// getEncoded returns a snapshot of the identified job without its result,
// plus the job's encoded result (nil when it has none). The bytes are
// immutable and may be read after the lock is released.
func (q *Queue) getEncoded(id string) (JobView, []byte, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job, ok := q.jobs[id]
	if !ok {
		return JobView{}, nil, false
	}
	return viewLocked(job), job.result, true
}

// status returns a snapshot of the identified job without its result, for
// callers that need only its state or trace.
func (q *Queue) status(id string) (JobView, bool) {
	v, _, ok := q.getEncoded(id)
	return v, ok
}

// List returns snapshots of every job in submission order, without result
// payloads (poll GET /v1/jobs/{id} for those).
func (q *Queue) List() []JobView {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]JobView, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, viewLocked(q.jobs[id]))
	}
	return out
}

// ErrBadCursor rejects a pagination cursor naming an unknown job.
var ErrBadCursor = errors.New("service: unknown pagination cursor")

// ListPage returns up to limit job snapshots in submission order,
// starting after the job named by cursor ("" starts from the beginning)
// and keeping only jobs in the given state ("" keeps all). next is the
// cursor for the following page, or "" when this page reaches the end.
// A limit of 0 or less returns every matching job. State filtering is a
// point-in-time view: a job may change state between pages.
func (q *Queue) ListPage(state JobState, cursor string, limit int) (page []JobView, next string, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	start := 0
	if cursor != "" {
		if _, ok := q.jobs[cursor]; !ok {
			return nil, "", ErrBadCursor
		}
		for i, id := range q.order {
			if id == cursor {
				start = i + 1
				break
			}
		}
	}
	page = []JobView{}
	for i := start; i < len(q.order); i++ {
		job := q.jobs[q.order[i]]
		if state != "" && job.State != state {
			continue
		}
		if limit > 0 && len(page) == limit {
			// One more match exists beyond the full page, so the page's
			// last job becomes the resume point.
			next = page[len(page)-1].ID
			break
		}
		page = append(page, viewLocked(job))
	}
	return page, next, nil
}

// Depth returns the number of jobs waiting for a worker; len on a
// channel is an atomic runtime query lockcheck exempts.
func (q *Queue) Depth() int { return len(q.ch) }

// Accepting reports whether a submission right now could be admitted:
// the queue is open and has pending capacity left. It feeds /readyz.
func (q *Queue) Accepting() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return !q.closed && len(q.ch) < cap(q.ch)
}

// publishJobLocked emits one job lifecycle event plus the current queue
// depth; the caller holds q.mu.
func (q *Queue) publishJobLocked(job *Job) {
	if q.bus == nil {
		return
	}
	q.bus.Publish(obs.Event{
		Kind:    obs.KindJob,
		Name:    "state",
		JobID:   job.ID,
		TraceID: job.TraceID,
		State:   string(job.State),
		Done:    job.Attempts,
	})
	q.bus.Publish(obs.Event{Kind: obs.KindQueue, Name: "depth", Depth: len(q.ch)})
}

// CountByState tallies jobs per state.
func (q *Queue) CountByState() map[JobState]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[JobState]int, len(JobStates))
	for _, job := range q.jobs {
		out[job.State]++
	}
	return out
}

// Close stops accepting submissions and closes the worker channel so the
// pool drains the backlog and exits. Idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.ch)
}

// setRunning transitions a job to running (one more attempt started). It
// returns how long the job sat in the queue and whether this is the job's
// first attempt (the pair feeds the queue-wait histogram exactly once per
// job).
func (q *Queue) setRunning(job *Job) (wait time.Duration, first bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := time.Now()
	if job.State == StateQueued && job.StartedAt.IsZero() {
		job.StartedAt = now
		wait, first = job.StartedAt.Sub(job.SubmittedAt), true
	}
	job.State = StateRunning
	job.Attempts++
	q.appendTransitionLocked(job, now)
	q.publishJobLocked(job)
	return wait, first
}

// setTrace records the job's trace ID so API clients can fetch its span
// tree once the job finishes.
func (q *Queue) setTrace(job *Job, traceID string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job.TraceID = traceID
}

// setLedger publishes (or, with nil, retires) a validation session's live
// ledger so suggestion handlers can decide against it.
func (q *Queue) setLedger(job *Job, l *repair.Ledger) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job.Ledger = l
}

// sessionOf returns the job plus its live ledger (nil when no validation
// session is running). Callers use the ledger after the lock is released:
// the ledger has its own mutex and a retired ledger fails decisions with
// ErrClosed, so no queue state is touched through it.
func (q *Queue) sessionOf(id string) (job *Job, ledger *repair.Ledger, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job, ok = q.jobs[id]
	if !ok {
		return nil, nil, false
	}
	return job, job.Ledger, true
}

// repairEventsOf snapshots a job's durable suggestion-event history.
func (q *Queue) repairEventsOf(job *Job) []repair.Event {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]repair.Event(nil), job.RepairEvents...)
}

// OpenSuggestions totals the open suggestions across every live validation
// session; metrics expose it as dart_suggestions_open. Ledger open counts
// are atomics, so sampling them under q.mu cannot contend with a ledger's
// own lock.
func (q *Queue) OpenSuggestions() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	total := 0
	for _, job := range q.jobs {
		if job.Ledger != nil {
			total += job.Ledger.OpenCount()
		}
	}
	return total
}

// finish records a job's terminal state and its encoded result (nil when
// there is none), which it keeps as is. The result record is appended
// before the terminal transition: a crash between the two leaves the job
// non-terminal so recovery re-runs it instead of trusting partial state.
// The rest of the job's snapshot entry is encoded once, off the lock,
// after the terminal state is recorded.
func (q *Queue) finish(job *Job, state JobState, result []byte, err error) {
	q.mu.Lock()
	job.State = state
	job.FinishedAt = time.Now()
	job.result = result
	if err != nil {
		job.Error = err.Error()
	}
	q.appendResultLocked(job)
	q.appendTransitionLocked(job, job.FinishedAt)
	q.publishJobLocked(job)
	pj := persistedOf(job)
	q.mu.Unlock()

	// A terminal job no longer changes, so its snapshot entry is final. A
	// snapshot captured before the head is set encodes the job itself.
	head, headErr := pj.encodeHead()
	q.mu.Lock()
	defer q.mu.Unlock()
	if headErr != nil {
		q.reportStoreErrorLocked(headErr)
		return
	}
	setHeadLocked(job, head)
}

// setHeadLocked caches a terminal job's encoded head and releases the
// spec's document, which the head now holds; the caller holds q.mu.
func setHeadLocked(job *Job, head []byte) {
	job.head = head
	job.Spec.Document = ""
}

// detachStore severs the queue from its store without syncing, leaving
// the on-disk state exactly as a process crash would. Test-only: the
// crash-recovery test uses it to simulate kill -9 in-process.
func (q *Queue) detachStore() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.store = nil
}

// viewLocked snapshots a job without its result; the caller holds q.mu.
func viewLocked(job *Job) JobView {
	v := JobView{
		ID:          job.ID,
		State:       job.State,
		Scenario:    job.Spec.Scenario,
		Solver:      job.Spec.Solver,
		Attempts:    job.Attempts,
		SubmittedAt: job.SubmittedAt,
		Error:       job.Error,
		TraceID:     job.TraceID,
	}
	if !job.StartedAt.IsZero() {
		t := job.StartedAt
		v.StartedAt = &t
	}
	if !job.FinishedAt.IsZero() {
		t := job.FinishedAt
		v.FinishedAt = &t
	}
	return v
}
