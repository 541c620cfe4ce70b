package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// File names inside a WAL directory.
const (
	// legacyLogName is the one log file of older builds. It orders before
	// every numbered log, and appends go on in it until the first rotation.
	legacyLogName = "jobs.wal"
	sealedName    = "sealed.bin"   // sealed entries, in the frame envelope
	snapName      = "snapshot.bin" // snapMagic | through | sealed length | crc | state
	snapTmpName   = "snapshot.tmp"
	// legacyLogTmpName is the log copy an older build wrote while it cut
	// the log; a crash could leave it behind.
	legacyLogTmpName = "jobs.wal.tmp"
)

// logName names the numbered log file n (n >= 1).
func logName(n uint64) string { return fmt.Sprintf("jobs.%06d.wal", n) }

// parseLogName returns the number of a log file name: 0 for the legacy
// log, n for exactly logName(n), and false for any other name.
func parseLogName(name string) (uint64, bool) {
	if name == legacyLogName {
		return 0, true
	}
	digits, ok := strings.CutPrefix(name, "jobs.")
	if digits, ok = strings.CutSuffix(digits, ".wal"); !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil || n == 0 || logName(n) != name {
		return 0, false
	}
	return n, true
}

// Snapshot file layout. Version 2, written since sealed entries exist:
//
//	snapMagic (8) | through (8 LE) | sealed length (8 LE) | crc32 (4 LE) | state
//
// where the CRC covers through, the sealed length and the state. Version
// 1, which older builds wrote, has no magic and no sealed file:
//
//	through (8 LE) | crc32(state) (4 LE) | state
//
// The magic tells the versions apart: read as a version 1 header it is a
// through of about 3.6e18, which no store reaches.
const (
	snapMagic    = "DARTSNP2"
	snapHeader   = len(snapMagic) + 8 + 8 + 4
	snapHeaderV1 = 12
)

// snapshot is a decoded snapshot.bin.
type snapshot struct {
	through uint64
	sealed  int64 // committed length of sealed.bin
	state   []byte
}

// snapshotHeader returns the version 2 header of a snapshot.
func snapshotHeader(through uint64, sealed int64, state []byte) []byte {
	h := append(make([]byte, 0, snapHeader), snapMagic...)
	h = binary.LittleEndian.AppendUint64(h, through)
	h = binary.LittleEndian.AppendUint64(h, uint64(sealed))
	crc := crc32.Update(crc32.ChecksumIEEE(h[len(snapMagic):]), crc32.IEEETable, state)
	return binary.LittleEndian.AppendUint32(h, crc)
}

// decodeSnapshot parses snapshot.bin in either version; ok is false when
// it is shorter than its header or fails its CRC.
func decodeSnapshot(raw []byte) (s snapshot, ok bool) {
	if bytes.HasPrefix(raw, []byte(snapMagic)) {
		if len(raw) < snapHeader {
			return s, false
		}
		fields := raw[len(snapMagic) : snapHeader-4]
		crc := crc32.Update(crc32.ChecksumIEEE(fields), crc32.IEEETable, raw[snapHeader:])
		sealed := binary.LittleEndian.Uint64(fields[8:])
		if crc != binary.LittleEndian.Uint32(raw[snapHeader-4:]) || sealed > math.MaxInt64 {
			return s, false
		}
		return snapshot{binary.LittleEndian.Uint64(fields), int64(sealed), raw[snapHeader:]}, true
	}
	if len(raw) < snapHeaderV1 || crc32.ChecksumIEEE(raw[snapHeaderV1:]) != binary.LittleEndian.Uint32(raw[8:snapHeaderV1]) {
		return s, false
	}
	return snapshot{through: binary.LittleEndian.Uint64(raw), state: raw[snapHeaderV1:]}, true
}

// errClosed reports a call on a closed WAL.
var errClosed = errors.New("store: WAL is closed")

// WALOptions tunes a write-ahead-log store.
type WALOptions struct {
	// SyncEveryAppend fsyncs the log after every append (the -store fsync
	// mode). When false (async), frames reach the OS immediately but
	// stable storage only on Sync, snapshot, and Close.
	SyncEveryAppend bool
}

// WAL is the file-backed JobStore: numbered append-only log files, an
// append-only file of sealed entries and an atomically replaced snapshot
// of the live state. The snapshot and the sealed entries stay on disk;
// the WAL keeps only their sizes, and Replay reads them back.
//
// Two mutexes, always taken in the order snapMu then mu. mu guards every
// other field and is the only lock Append takes. snapMu serializes
// WriteSnapshot, Replay and Close, and only holders of both change logs.
// A snapshot takes mu only to move appends onto a new log file and to
// record what landed, so appends never wait for a snapshot's file I/O.
type WAL struct {
	mu         sync.Mutex
	snapMu     sync.Mutex
	dir        string
	fsyncEvery bool
	closed     bool

	logs    []logFile // every log file, oldest first; the last takes appends
	wal     *os.File  // the last log file
	tail    int64     // next append offset in wal
	lastSeq uint64    // highest sequence in the logs or the snapshot

	sealed    *os.File
	sealedLen int64 // bytes of sealed.bin the snapshot counts

	haveSnap  bool   // a valid snapshot.bin was opened or written
	snapSeq   uint64 // last sequence the snapshot absorbs
	snapSize  int64  // length of the snapshot's state
	sinceSnap int

	appends       uint64
	appendBytes   uint64
	fsyncs        uint64
	snapshots     uint64
	replaySeconds float64
	replayRecords uint64

	buf []byte // reusable frame-encoding buffer
}

// logFile is one log file of the WAL.
type logFile struct {
	name string
	num  uint64
	// last is the highest sequence in the file or, for an empty file, the
	// highest before it: a snapshot through last absorbs the whole file.
	last uint64
	// size is the file's length; the last file's grows, and WAL.tail
	// holds it.
	size int64
}

// OpenWAL opens (creating if needed) the WAL store rooted at dir. Opening
// reads the snapshot, cuts sealed.bin to the length the snapshot counts
// (the rest belongs to a snapshot that never landed) and scans the log
// files in order: a torn final frame — truncated mid-write by a crash —
// is detected by its length prefix or CRC and cut off, and so is every
// frame after it. A snapshot that counts more sealed bytes than the file
// holds fails the open. Temporary files a crash left mid-snapshot are
// removed; a jobs.idx offset index left by older builds is ignored.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	for _, name := range []string{snapTmpName, legacyLogTmpName} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("store: removing %s: %w", name, err)
		}
	}
	w := &WAL{dir: dir, fsyncEvery: opts.SyncEveryAppend}
	s, ok, err := readSnapshot(dir)
	if err != nil {
		return nil, err
	}
	if ok {
		w.haveSnap, w.snapSeq, w.snapSize, w.sealedLen = true, s.through, int64(len(s.state)), s.sealed
		w.lastSeq = s.through
	}
	// The WAL is not shared yet; the lock keeps the helpers *Locked.
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.openSealedLocked(); err != nil {
		return nil, err
	}
	if err := w.openLogsLocked(); err != nil {
		_ = w.sealed.Close()
		return nil, err
	}
	return w, nil
}

// readSnapshot reads snapshot.bin from dir. ok is false when the file is
// absent or invalid (a torn rename never happens — writes go through a
// tmp file — but disks lie); err reports only a failed read.
func readSnapshot(dir string) (s snapshot, ok bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, snapName))
	if errors.Is(err, os.ErrNotExist) {
		return s, false, nil
	}
	if err != nil {
		return s, false, fmt.Errorf("store: reading snapshot: %w", err)
	}
	s, ok = decodeSnapshot(raw)
	return s, ok, nil
}

// openSealedLocked opens sealed.bin during open and cuts it to the
// committed length.
func (w *WAL) openSealedLocked() error {
	f, err := os.OpenFile(filepath.Join(w.dir, sealedName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening %s: %w", sealedName, err)
	}
	fi, err := f.Stat()
	switch {
	case err != nil:
		err = fmt.Errorf("store: %s: %w", sealedName, err)
	case fi.Size() < w.sealedLen:
		err = fmt.Errorf("store: %s holds %d bytes, but the snapshot counts %d", sealedName, fi.Size(), w.sealedLen)
	case fi.Size() > w.sealedLen:
		if err = f.Truncate(w.sealedLen); err != nil {
			err = fmt.Errorf("store: cutting %s: %w", sealedName, err)
		}
	}
	if err != nil {
		_ = f.Close()
		return err
	}
	w.sealed = f
	return nil
}

// openLogsLocked lists and scans the log files during open, creating the
// first one in an empty directory, and opens the last for appends. The
// logs form one sequence: the first invalid frame ends it, so the file
// that holds it is cut there and every later file is emptied.
func (w *WAL) openLogsLocked() error {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("store: listing %s: %w", w.dir, err)
	}
	for _, e := range entries {
		if n, ok := parseLogName(e.Name()); ok && e.Type().IsRegular() {
			w.logs = append(w.logs, logFile{name: e.Name(), num: n})
		}
	}
	slices.SortFunc(w.logs, func(a, b logFile) int { return cmp.Compare(a.num, b.num) })
	if len(w.logs) == 0 {
		f, err := createLog(w.dir, 1)
		if err != nil {
			return err
		}
		w.fsyncs++
		w.logs = []logFile{{name: logName(1), num: 1, last: w.lastSeq}}
		w.wal = f
		return nil
	}
	ended := false
	for i := range w.logs {
		lf := &w.logs[i]
		data, err := os.ReadFile(filepath.Join(w.dir, lf.name))
		if err != nil {
			return fmt.Errorf("store: scanning %s: %w", lf.name, err)
		}
		// Only the last file can have a torn tail from a crash mid-append;
		// any other cut is corruption, and it is made durable at once.
		durable := ended || i < len(w.logs)-1
		off := 0
		for !ended && off < len(data) {
			rec, n, err := decodeFrame(data[off:])
			if err != nil {
				ended = true // torn or corrupt: the log ends at the last valid frame
				break
			}
			w.lastSeq = max(w.lastSeq, rec.Seq)
			if !w.absorbedLocked(rec.Seq) {
				w.sinceSnap++
			}
			off += n
		}
		lf.size, lf.last = int64(off), w.lastSeq
		if off < len(data) {
			if err := cutFile(filepath.Join(w.dir, lf.name), lf.size, durable); err != nil {
				return err
			}
		}
	}
	last := w.logs[len(w.logs)-1]
	w.wal, err = os.OpenFile(filepath.Join(w.dir, last.name), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening %s: %w", last.name, err)
	}
	w.tail = last.size
	return nil
}

// cutFile truncates path to size, syncing it when sync is set.
func cutFile(path string, size int64, sync bool) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: cutting %s: %w", filepath.Base(path), err)
	}
	if err := f.Truncate(size); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: cutting %s: %w", filepath.Base(path), err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("store: cutting %s: %w", filepath.Base(path), err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: cutting %s: %w", filepath.Base(path), err)
	}
	return nil
}

// createLog creates the numbered log file n in dir and makes its name
// durable with one directory sync, so that no acknowledged frame ever
// lives in a file a crash could lose.
func createLog(dir string, n uint64) (*os.File, error) {
	path := filepath.Join(dir, logName(n))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", logName(n), err)
	}
	if err := syncDir(dir); err != nil {
		return nil, abandonLog(f, fmt.Errorf("store: syncing %s: %w", dir, err))
	}
	return f, nil
}

// abandonLog closes and removes a new log file that never took an
// append, and returns err.
func abandonLog(f *os.File, err error) error {
	_ = f.Close()
	_ = os.Remove(f.Name())
	return err
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

// Replay implements JobStore: it reads the snapshot and the sealed
// entries back from disk, then makes one sequential read of each log
// file, delivering every record the snapshot does not already absorb. A
// snapshot that went missing, turned corrupt or changed since it was
// opened or written is an error, not an empty state: the log frames it
// absorbed are gone. So is a sealed entry that no longer reads back.
func (w *WAL) Replay(sealed func(entry []byte) error, fn func(*Record) error) ([]byte, error) {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	start := time.Now()
	w.replayRecords = 0
	var state []byte
	if w.haveSnap {
		s, ok, err := readSnapshot(w.dir)
		if err != nil {
			return nil, err
		}
		if !ok || s.through != w.snapSeq || int64(len(s.state)) != w.snapSize || s.sealed != w.sealedLen {
			return nil, fmt.Errorf("store: %s no longer holds the snapshot through seq %d", snapName, w.snapSeq)
		}
		if len(s.state) > 0 { // an empty state replays as nil, as in Mem
			state = s.state
		}
	}
	entries := make([]byte, w.sealedLen)
	if _, err := w.sealed.ReadAt(entries, 0); err != nil && w.sealedLen > 0 {
		return nil, fmt.Errorf("store: reading %s: %w", sealedName, err)
	}
	for off := 0; off < len(entries); {
		body, n, err := frameBody(entries[off:])
		if err != nil {
			return nil, fmt.Errorf("store: %s entry at offset %d: %w", sealedName, off, err)
		}
		if err := sealed(body); err != nil {
			return nil, err
		}
		off += n
	}
	for i, lf := range w.logs {
		if err := w.replayLogLocked(lf, i == len(w.logs)-1, fn); err != nil {
			return nil, err
		}
	}
	w.replaySeconds = time.Since(start).Seconds()
	return state, nil
}

// replayLogLocked delivers the unabsorbed records of one log file.
func (w *WAL) replayLogLocked(lf logFile, active bool, fn func(*Record) error) error {
	size := lf.size
	if active {
		size = w.tail
	} else if w.absorbedLocked(lf.last) {
		return nil // the snapshot absorbs the whole file
	}
	data := make([]byte, size)
	f := w.wal
	if !active {
		var err error
		if f, err = os.Open(filepath.Join(w.dir, lf.name)); err != nil {
			return fmt.Errorf("store: reading log: %w", err)
		}
	}
	_, err := f.ReadAt(data, 0)
	if !active {
		_ = f.Close() // read-only: nothing to lose
	}
	if err != nil && size > 0 {
		return fmt.Errorf("store: reading log: %w", err)
	}
	for off := 0; off < len(data); {
		rec, n, err := decodeFrame(data[off:])
		if err != nil {
			// Open already cut the torn tail; reaching here means the log
			// was corrupted after open. Stop at the last valid frame,
			// mirroring open-time behavior.
			break
		}
		off += n
		if w.absorbedLocked(rec.Seq) {
			continue
		}
		if err := fn(rec); err != nil {
			return err
		}
		w.replayRecords++
	}
	return nil
}

// WriteSnapshot implements JobStore in four steps, all without mu except
// where noted, so appends go on meanwhile:
//
//  1. Rotate: create the next numbered log file and sync the directory;
//     under mu, move appends onto it. In async mode the rotated file is
//     synced first, so that no frame of the new file can outlive one of
//     the old.
//  2. Seal: write the sealed entries after the committed length of
//     sealed.bin and fsync it.
//  3. Install: write the snapshot, which counts the new length, to a tmp
//     file, fsync it, rename it over snapshot.bin and sync the directory.
//  4. Under mu, record the landed snapshot; then delete every log file
//     whose last frame it absorbs.
//
// A crash before the rename leaves the old snapshot, whose committed
// length cuts the new entries at open; their records are still in the
// log. A crash before the deletions leaves files whose frames replay
// skips.
func (w *WAL) WriteSnapshot(through uint64, sealed [][]byte, state []byte) error {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	w.mu.Lock()
	err := w.checkThroughLocked(through)
	dir, sealedFile := w.dir, w.sealed
	next, committed := w.logs[len(w.logs)-1].num+1, w.sealedLen
	w.mu.Unlock()
	if err != nil {
		return err
	}
	size := 0
	for _, e := range sealed {
		if len(e) > maxFrameBody {
			return fmt.Errorf("store: sealed entry of %d bytes, over the %d-byte bound", len(e), maxFrameBody)
		}
		size += binary.MaxVarintLen64 + len(e) + crcSize
	}
	frames := make([]byte, 0, size)
	for _, e := range sealed {
		frames = appendFrame(frames, e)
	}
	f, err := createLog(dir, next)
	if err != nil {
		return err
	}
	if err := w.rotate(f, next); err != nil {
		return err
	}
	if len(frames) > 0 {
		if err := seal(sealedFile, frames, committed); err != nil {
			return err
		}
	}
	sealedLen := committed + int64(len(frames))
	renamed, syncs, err := installSnapshot(dir, snapshotHeader(through, sealedLen, state), state)
	w.mu.Lock()
	w.fsyncs += syncs
	if len(frames) > 0 {
		w.fsyncs++
	}
	if renamed {
		// snapshot.bin is the new one now, even if the directory sync
		// failed and a crash could still bring the old one back: no sealed
		// byte it counts is written again, and no log file goes until a
		// snapshot lands.
		w.haveSnap, w.snapSeq, w.snapSize, w.sealedLen = true, through, int64(len(state)), sealedLen
		w.sinceSnap = int(w.lastSeq - through)
	}
	if err != nil {
		w.mu.Unlock()
		return err
	}
	w.snapshots++
	var absorbed []string
	for _, lf := range w.logs[:len(w.logs)-1] {
		if lf.last > through {
			break
		}
		absorbed = append(absorbed, lf.name)
	}
	w.mu.Unlock()
	// A file that cannot be deleted stays, with the files after it, for
	// the next snapshot to delete.
	deleted := 0
	for _, name := range absorbed {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			break
		}
		deleted++
	}
	w.mu.Lock()
	w.logs = slices.Delete(w.logs, 0, deleted)
	w.mu.Unlock()
	return nil
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

// rotate moves appends onto f, the new log file next, which createLog
// made. The caller holds snapMu, so no other rotation runs meanwhile.
func (w *WAL) rotate(f *os.File, next uint64) error {
	w.mu.Lock()
	async, old, synced := !w.fsyncEvery, w.wal, w.tail
	w.mu.Unlock()
	if async {
		// Sync the old file's frames before taking the lock, so that the
		// sync under it covers only the frames appended meanwhile.
		if err := old.Sync(); err != nil {
			return abandonLog(f, fmt.Errorf("store: fsync: %w", err))
		}
	}
	w.mu.Lock()
	if async {
		w.fsyncs++
		if w.tail != synced {
			if err := w.wal.Sync(); err != nil {
				w.mu.Unlock()
				return abandonLog(f, fmt.Errorf("store: fsync: %w", err))
			}
			w.fsyncs++
		}
	}
	w.fsyncs++ // createLog's directory sync
	cur := &w.logs[len(w.logs)-1]
	cur.size, cur.last = w.tail, w.lastSeq
	w.logs = append(w.logs, logFile{name: logName(next), num: next, last: w.lastSeq})
	w.wal, w.tail = f, 0
	w.mu.Unlock()
	if err := old.Close(); err != nil {
		return fmt.Errorf("store: closing the rotated log: %w", err)
	}
	return nil
}

// seal writes the frames of newly sealed entries to the sealed file f at
// the committed length at and fsyncs it. Bytes a failed snapshot left past
// the committed length are overwritten.
func seal(f *os.File, frames []byte, at int64) error {
	if _, err := f.WriteAt(frames, at); err != nil {
		return fmt.Errorf("store: writing %s: %w", sealedName, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", sealedName, err)
	}
	return nil
}

// installSnapshot durably replaces dir's snapshot.bin with header and
// state. It reports whether the rename happened and the fsyncs it made,
// for the caller to count.
func installSnapshot(dir string, header, state []byte) (renamed bool, syncs uint64, err error) {
	if err := writeSynced(filepath.Join(dir, snapTmpName), header, state); err != nil {
		return false, 0, fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := os.Rename(filepath.Join(dir, snapTmpName), filepath.Join(dir, snapName)); err != nil {
		return false, 1, fmt.Errorf("store: installing snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return true, 1, fmt.Errorf("store: syncing %s: %w", dir, err)
	}
	return true, 2, nil
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

// syncDir flushes a directory entry so a completed create or rename
// inside it is durable. A package variable so store tests can inject
// directory-sync failures, which are otherwise nearly impossible to
// provoke.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
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
	logBytes := w.tail
	for _, lf := range w.logs[:len(w.logs)-1] {
		logBytes += lf.size
	}
	return Stats{
		Appends:       w.appends,
		AppendBytes:   w.appendBytes,
		Fsyncs:        w.fsyncs,
		Snapshots:     w.snapshots,
		WALBytes:      logBytes,
		SnapshotBytes: w.snapSize,
		ReplaySeconds: w.replaySeconds,
		ReplayRecords: w.replayRecords,
	}
}

// Close waits for an in-flight WriteSnapshot, then flushes the log and
// closes its files; every error is reported, joined, so a failed final
// sync cannot hide behind a clean close. A WriteSnapshot that starts
// after Close fails without touching the directory.
func (w *WAL) Close() error {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	return errors.Join(w.wal.Sync(), w.wal.Close(), w.sealed.Close())
}
