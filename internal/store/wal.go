package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// File names inside a WAL directory.
const (
	walName     = "jobs.wal"     // uvarint-length-prefixed CRC32 frames
	walTmpName  = "jobs.wal.tmp" // the log's unabsorbed suffix while a snapshot cuts it
	snapName    = "snapshot.bin" // seq(8 LE) | crc32(blob)(4 LE) | blob
	snapTmpName = "snapshot.tmp"
)

// snapHeader is the width of snapshot.bin's seq and CRC header.
const snapHeader = 12

// errClosed reports a call on a closed WAL.
var errClosed = errors.New("store: WAL is closed")

// WALOptions tunes a write-ahead-log store.
type WALOptions struct {
	// SyncEveryAppend fsyncs the log after every append (the -store fsync
	// mode). When false (async), frames reach the OS immediately but
	// stable storage only on Sync, snapshot, and Close.
	SyncEveryAppend bool
}

// WAL is the file-backed JobStore: an append-only frame log plus an
// atomically replaced snapshot. The snapshot stays on disk; the WAL keeps
// only its sequence and size, and Replay reads it back.
//
// Two mutexes, always taken in the order snapMu then mu. mu guards every
// other field and is the only lock Append takes. snapMu serializes
// WriteSnapshot, Replay and Close; a snapshot holds it across writing,
// syncing and renaming snapshot.bin and takes mu only to cut the log, so
// appends never wait for a snapshot's file I/O.
type WAL struct {
	mu         sync.Mutex
	snapMu     sync.Mutex
	dir        string
	fsyncEvery bool
	closed     bool

	wal     *os.File
	tail    int64  // next append offset in jobs.wal
	lastSeq uint64 // highest sequence in the log or snapshot
	// dirDirty is set when a log cut renamed jobs.wal but could not sync
	// the directory: the next append retries the sync before it writes,
	// so no acknowledged frame lives only in an undurable file name.
	dirDirty bool

	haveSnap  bool   // a valid snapshot.bin was opened or written
	snapSeq   uint64 // last sequence the snapshot absorbs
	snapSize  int64  // length of the snapshot's state blob
	sinceSnap int

	appends       uint64
	appendBytes   uint64
	fsyncs        uint64
	snapshots     uint64
	replaySeconds float64
	replayRecords uint64

	buf []byte // reusable frame-encoding buffer
}

// OpenWAL opens (creating if needed) the WAL store rooted at dir. Opening
// validates the log tail: a torn final frame — truncated mid-write by a
// crash — is detected by its length prefix or CRC and cut off. Temporary
// files a crash left mid-snapshot are removed; a jobs.idx offset index
// left by older builds is ignored.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	for _, name := range []string{snapTmpName, walTmpName} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("store: removing %s: %w", name, err)
		}
	}
	w := &WAL{dir: dir, fsyncEvery: opts.SyncEveryAppend}
	if err := w.loadSnapshotLocked(); err != nil {
		return nil, err
	}
	var err error
	w.wal, err = os.OpenFile(filepath.Join(dir, walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", walName, err)
	}
	if err := w.recoverTailLocked(); err != nil {
		_ = w.wal.Close()
		return nil, err
	}
	return w, nil
}

// readSnapshot reads snapshot.bin from dir. ok is false when the file is
// absent, shorter than its header, or fails its CRC (a torn rename never
// happens — writes go through a tmp file — but disks lie); err reports
// only a failed read.
func readSnapshot(dir string) (seq uint64, blob []byte, ok bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, snapName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, fmt.Errorf("store: reading snapshot: %w", err)
	}
	if len(raw) < snapHeader || crc32.ChecksumIEEE(raw[snapHeader:]) != binary.LittleEndian.Uint32(raw[8:snapHeader]) {
		return 0, nil, false, nil
	}
	return binary.LittleEndian.Uint64(raw[:8]), raw[snapHeader:], true, nil
}

// loadSnapshotLocked runs during open, before the WAL is shared: it
// remembers the sequence and size of a valid snapshot.bin. A missing or
// corrupt snapshot is ignored rather than fatal: the log may still hold
// a usable suffix.
func (w *WAL) loadSnapshotLocked() error {
	seq, blob, ok, err := readSnapshot(w.dir)
	if !ok {
		return err
	}
	w.haveSnap, w.snapSeq, w.snapSize = true, seq, int64(len(blob))
	w.lastSeq = seq
	return nil
}

// recoverTailLocked scans the log sequentially and truncates a torn
// tail. Called from OpenWAL before the store is shared, but takes the
// lock anyway so the helpers below stay *Locked.
func (w *WAL) recoverTailLocked() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	data, err := io.ReadAll(w.wal)
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", walName, err)
	}
	off := 0
	for off < len(data) {
		rec, n, err := decodeFrame(data[off:])
		if err != nil {
			break // torn or corrupt tail: the log ends at the last valid frame
		}
		w.lastSeq = max(w.lastSeq, rec.Seq)
		if !w.absorbedLocked(rec.Seq) {
			w.sinceSnap++
		}
		off += n
	}
	w.tail = int64(off)
	if off < len(data) {
		if err := w.wal.Truncate(w.tail); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	return nil
}

// absorbedLocked reports whether the snapshot covers the record with
// sequence seq, so replay must skip it.
func (w *WAL) absorbedLocked(seq uint64) bool { return w.haveSnap && seq <= w.snapSeq }

// Append implements JobStore: it assigns the record's sequence number,
// writes one frame, and (in fsync mode) flushes the log before
// returning.
func (w *WAL) Append(rec *Record) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errClosed
	}
	if w.lastSeq == math.MaxUint64 {
		return 0, errors.New("store: sequence numbers exhausted")
	}
	if w.dirDirty {
		if err := w.syncDirLocked(); err != nil {
			return 0, err
		}
		w.dirDirty = false
	}
	rec.Seq = w.lastSeq + 1
	w.buf = encodeFrame(w.buf[:0], rec)
	if _, err := w.wal.WriteAt(w.buf, w.tail); err != nil {
		return 0, fmt.Errorf("store: appending frame: %w", err)
	}
	if w.fsyncEvery {
		if err := w.wal.Sync(); err != nil {
			return 0, fmt.Errorf("store: fsync: %w", err)
		}
		w.fsyncs++
	}
	w.tail += int64(len(w.buf))
	w.lastSeq++
	w.appends++
	w.appendBytes += uint64(len(w.buf))
	w.sinceSnap++
	return rec.Seq, nil
}

// Replay implements JobStore: it reads the snapshot back from disk, then
// makes one sequential read of the live log, delivering every record the
// snapshot does not already absorb. A snapshot that went missing, turned
// corrupt or changed since it was opened or written is an error, not an
// empty state: the log frames it absorbed are gone. The callback must
// not call back into the store.
func (w *WAL) Replay(fn func(*Record) error) ([]byte, error) {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	start := time.Now()
	w.replayRecords = 0
	var snap []byte
	if w.haveSnap {
		seq, blob, ok, err := readSnapshot(w.dir)
		if err != nil {
			return nil, err
		}
		if !ok || seq != w.snapSeq || int64(len(blob)) != w.snapSize {
			return nil, fmt.Errorf("store: %s no longer holds the snapshot through seq %d", snapName, w.snapSeq)
		}
		if len(blob) > 0 { // an empty state replays as nil, as in Mem
			snap = blob
		}
	}
	data := make([]byte, w.tail)
	if _, err := w.wal.ReadAt(data, 0); err != nil && w.tail > 0 {
		return nil, fmt.Errorf("store: reading log: %w", err)
	}
	off := 0
	for off < len(data) {
		rec, n, err := decodeFrame(data[off:])
		if err != nil {
			// recoverTailLocked already cut the torn tail; reaching here means
			// the log was corrupted after open. Stop at the last valid
			// frame, mirroring open-time behavior.
			break
		}
		off += n
		if w.absorbedLocked(rec.Seq) {
			continue
		}
		if err := fn(rec); err != nil {
			return nil, err
		}
		w.replayRecords++
	}
	w.replaySeconds = time.Since(start).Seconds()
	return snap, nil
}

// WriteSnapshot implements JobStore. state is written to a tmp file,
// fsynced, atomically renamed over snapshot.bin and made durable by a
// directory sync, all without mu, so appends go on meanwhile. Then, under
// mu, the log is cut: the frames after through move to a fresh jobs.wal.
// A crash before the cut is safe: the leftover frames carry sequence
// numbers the snapshot covers, and replay skips them.
func (w *WAL) WriteSnapshot(through uint64, state []byte) error {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	w.mu.Lock()
	dir, err := w.dir, w.checkThroughLocked(through)
	w.mu.Unlock()
	if err != nil {
		return err
	}
	syncs, err := installSnapshot(dir, through, state)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fsyncs += syncs
	if err != nil {
		// Without a durable rename a crash could resurrect the old
		// snapshot, so the log must keep every frame. The WAL keeps its old
		// snapshot seq and size; if it had a snapshot, Replay now reports
		// the replaced file.
		return err
	}
	w.haveSnap, w.snapSeq, w.snapSize = true, through, int64(len(state))
	w.snapshots++
	return w.cutLogLocked(through)
}

// checkThroughLocked rejects a snapshot the log cannot honour: one on a
// closed store, one claiming frames not yet appended, and one older than
// the current snapshot.
func (w *WAL) checkThroughLocked(through uint64) error {
	switch {
	case w.closed:
		return errClosed
	case through > w.lastSeq:
		return fmt.Errorf("store: snapshot through seq %d, past the last appended seq %d", through, w.lastSeq)
	case w.haveSnap && through < w.snapSeq:
		return fmt.Errorf("store: snapshot through seq %d, behind the current snapshot's %d", through, w.snapSeq)
	}
	return nil
}

// installSnapshot durably replaces dir's snapshot.bin with state through
// seq, returning the fsyncs it made for the caller to count.
func installSnapshot(dir string, through uint64, state []byte) (syncs uint64, err error) {
	header := binary.LittleEndian.AppendUint64(make([]byte, 0, snapHeader), through)
	header = binary.LittleEndian.AppendUint32(header, crc32.ChecksumIEEE(state))
	if err := writeSynced(filepath.Join(dir, snapTmpName), header, state); err != nil {
		return 0, fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := os.Rename(filepath.Join(dir, snapTmpName), filepath.Join(dir, snapName)); err != nil {
		return 1, fmt.Errorf("store: installing snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 1, fmt.Errorf("store: syncing %s: %w", dir, err)
	}
	return 2, nil
}

// writeSynced creates (or truncates) path, writes the parts in order and
// fsyncs the file.
func writeSynced(path string, parts ...[]byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := f.Write(p); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// cutLogLocked drops the frames a snapshot through seq absorbs. The log
// holds about one snapshot interval of frames, so it is read whole and
// its frame headers walked from offset 0 to the first frame past
// through. An empty suffix truncates the log in place, as replay skips
// absorbed frames whether or not the truncation survives a crash. A
// non-empty suffix is written to jobs.wal.tmp, fsynced, renamed over
// jobs.wal and made durable by a directory sync, so the log file is
// always either the old one or the complete new one.
func (w *WAL) cutLogLocked(through uint64) error {
	data := make([]byte, w.tail)
	if _, err := w.wal.ReadAt(data, 0); err != nil && w.tail > 0 {
		return fmt.Errorf("store: reading log: %w", err)
	}
	off, kept := -1, 0
	for at := 0; at < len(data); {
		seq, n, err := frameSeq(data[at:])
		if err != nil {
			return fmt.Errorf("store: log frame at offset %d: %w", at, err)
		}
		if seq > through {
			if off < 0 {
				off = at
			}
			kept++
		}
		at += n
	}
	if off < 0 {
		if err := w.wal.Truncate(0); err != nil {
			return fmt.Errorf("store: truncating log: %w", err)
		}
		w.tail, w.sinceSnap = 0, 0
		return nil
	}
	suffix := data[off:]
	tmp := filepath.Join(w.dir, walTmpName)
	if err := writeSynced(tmp, suffix); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: writing cut log: %w", err)
	}
	w.fsyncs++
	f, err := os.OpenFile(tmp, os.O_RDWR, 0o644)
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: opening cut log: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, walName)); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("store: installing cut log: %w", err)
	}
	old := w.wal
	w.wal, w.tail, w.sinceSnap = f, int64(len(suffix)), kept
	err = w.syncDirLocked()
	w.dirDirty = err != nil
	return errors.Join(err, old.Close())
}

// syncDir flushes a directory entry so a completed rename inside it is
// durable. A package variable so store tests can inject directory-sync
// failures, which are otherwise nearly impossible to provoke.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// syncDirLocked flushes the WAL directory after the log cut's rename so
// the new log's name is durable before another frame is appended to it.
func (w *WAL) syncDirLocked() error {
	if err := syncDir(w.dir); err != nil {
		return fmt.Errorf("store: syncing %s: %w", w.dir, err)
	}
	w.fsyncs++
	return nil
}

// AppendsSinceSnapshot implements JobStore.
func (w *WAL) AppendsSinceSnapshot() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sinceSnap
}

// Sync implements JobStore: flush the log to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.wal.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	w.fsyncs++
	return nil
}

// Stats implements JobStore.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Appends:       w.appends,
		AppendBytes:   w.appendBytes,
		Fsyncs:        w.fsyncs,
		Snapshots:     w.snapshots,
		WALBytes:      w.tail,
		SnapshotBytes: w.snapSize,
		ReplaySeconds: w.replaySeconds,
		ReplayRecords: w.replayRecords,
	}
}

// Close waits for an in-flight WriteSnapshot, then flushes the log and
// closes it; both errors are reported, joined, so a failed final sync
// cannot hide behind a clean close. A WriteSnapshot that starts after
// Close fails without touching the directory.
func (w *WAL) Close() error {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	return errors.Join(w.wal.Sync(), w.wal.Close())
}
