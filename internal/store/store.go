// Package store is dartd's durable job store: everything the in-memory
// queue knows — submitted specs, state transitions, terminal results,
// suggestion-ledger events — is persisted as an append-only sequence of
// records so a restarted server can replay its way back to the exact
// pre-crash state.
//
// The flagship backend is a file-backed write-ahead log (WAL): records are
// uvarint-length-prefixed binary frames, each carrying a CRC32, appended
// to numbered log files. A snapshot costs what changed since the last
// one: entries the caller seals (finished jobs, which never change) are
// appended once to sealed.bin, snapshot.bin holds only the live state and
// the sealed file's committed length, and the log is rotated to a new
// file instead of copied, so old log files are deleted once a snapshot
// absorbs them. Recovery is one sequential replay: the sealed entries,
// then the snapshot, then every frame with a sequence number past it. A
// torn tail (partial final frame from a crash mid-write) is detected by
// the length and CRC checks and cleanly truncated — replay never errors
// on it.
//
// A second, in-memory backend (Mem) implements the same interface,
// mirroring the pre-persistence behavior of the service; differential
// tests drive both backends with identical record sequences and assert
// identical replays.
package store

import "time"

// RecordType tags one WAL frame.
type RecordType uint8

const (
	// RecSubmit records a newly accepted job: JobID, submission time, and
	// the job spec JSON in Blob.
	RecSubmit RecordType = iota + 1
	// RecTransition records a job state change: State, Attempts, the
	// transition time, and (entering running) the TraceID. Terminal
	// transitions carry the error text.
	RecTransition
	// RecResult records a terminal result: the wire-form result JSON in
	// Blob. It is appended before the terminal transition so a crash
	// between the two re-runs the job instead of serving a half-state.
	RecResult
	// RecSpans is written only by older builds, which marked each job's
	// span export with it. Replay skips it. It keeps its value so that
	// RecRepair stays 5 and old logs still decode.
	RecSpans
	// RecRepair records one suggestion-ledger event of a validation
	// session: State carries the event kind (proposed, accepted, rejected,
	// reverted, superseded), Blob the event JSON with the full suggestion
	// snapshot. Replay folds these into the job's durable decision history
	// so an interrupted session resumes with its queue and audit trail
	// intact.
	RecRepair
)

// String names the record type for logs and tests.
func (t RecordType) String() string {
	switch t {
	case RecSubmit:
		return "submit"
	case RecTransition:
		return "transition"
	case RecResult:
		return "result"
	case RecSpans:
		return "spans"
	case RecRepair:
		return "repair"
	default:
		return "unknown"
	}
}

// Record is one durable job event. Seq is assigned by the store on append,
// strictly increasing across the store's lifetime (snapshots remember the
// last sequence they cover, so replay skips frames a snapshot already
// absorbed). UnixNano is the event time with full nanosecond fidelity —
// replayed timestamps must be byte-identical to the originals when
// re-encoded as JSON.
type Record struct {
	Type     RecordType
	Seq      uint64
	UnixNano int64
	JobID    string
	State    string
	Attempts int
	TraceID  string
	Error    string
	Blob     []byte
}

// Time converts the record's event time back to a wall-clock time.
func (r *Record) Time() time.Time { return time.Unix(0, r.UnixNano) }

// Stats is a point-in-time snapshot of a store's counters; the service
// exposes them as dart_store_* metrics.
type Stats struct {
	// Appends counts records appended over the store's lifetime.
	Appends uint64
	// AppendBytes counts frame bytes written by appends.
	AppendBytes uint64
	// Fsyncs counts explicit flushes to stable storage.
	Fsyncs uint64
	// Snapshots counts snapshots that landed.
	Snapshots uint64
	// WALBytes is the current size of the log files.
	WALBytes int64
	// SnapshotBytes is the size of the current snapshot's state (0 when
	// none); sealed entries are not part of it.
	SnapshotBytes int64
	// ReplaySeconds is the duration of the last Replay call.
	ReplaySeconds float64
	// ReplayRecords counts records delivered by the last Replay call.
	ReplayRecords uint64
}

// JobStore is the pluggable persistence interface the service writes
// through. Implementations must be safe for concurrent use.
//
// The contract: Append durably adds one record and returns its assigned
// sequence number. WriteSnapshot(through, sealed, state) durably appends
// the sealed entries after those of earlier snapshots and then atomically
// replaces the snapshot with state; together, every sealed entry and
// state are a caller-defined serialization of every record up to and
// including sequence number through, and those records drop out of the
// replay. A sealed entry is written once and never rewritten, so a
// caller seals only what no later record changes (a finished job) and
// passes the rest in state. Records appended after through stay in the
// log and replay after the new snapshot, so a caller may capture its
// state and through under its own lock and write the snapshot after
// releasing it while appends go on. WriteSnapshot returns nil once the
// snapshot has landed; after an error the caller passes the same entries
// again with its next snapshot, and an entry may then replay twice.
// Replay delivers every sealed entry, in the order sealed, then every
// record the snapshot does not absorb, in append order, and returns the
// snapshot's state (nil when none); the callbacks must not call back
// into the store.
type JobStore interface {
	// Append persists one record and returns its sequence number.
	Append(rec *Record) (uint64, error)
	// Replay streams the sealed entries to sealed and every record
	// appended after the snapshot to fn, in order, and returns the
	// snapshot's state.
	Replay(sealed func(entry []byte) error, fn func(*Record) error) ([]byte, error)
	// WriteSnapshot appends the newly sealed entries and replaces the
	// snapshot with state; the two cover every record through sequence
	// number through, which drop out of the log. through may not pass
	// the last appended sequence nor fall below the current snapshot's.
	WriteSnapshot(through uint64, sealed [][]byte, state []byte) error
	// AppendsSinceSnapshot reports log records not yet absorbed by a
	// snapshot; callers use it to schedule WriteSnapshot.
	AppendsSinceSnapshot() int
	// Sync flushes buffered frames to stable storage (graceful drain
	// calls it so a clean shutdown never depends on replaying unsynced
	// frames).
	Sync() error
	// Stats returns the store's counters.
	Stats() Stats
	// Close releases resources; the store is unusable afterwards.
	Close() error
}
