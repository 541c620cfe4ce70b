package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// testRecord builds a deterministic record for index i.
func testRecord(i int) *Record {
	return &Record{
		Type:     RecordType(1 + i%4),
		UnixNano: time.Date(2026, 8, 7, 0, 0, 0, 1234+i, time.UTC).UnixNano(),
		JobID:    fmt.Sprintf("job-%06d", i+1),
		State:    "running",
		Attempts: i % 3,
		TraceID:  fmt.Sprintf("t%08x", i),
		Error:    map[bool]string{true: "boom", false: ""}[i%5 == 0],
		Blob:     []byte(fmt.Sprintf(`{"i":%d}`, i)),
	}
}

// appendN appends n deterministic records.
func appendN(t testing.TB, s JobStore, n int) []*Record {
	t.Helper()
	recs := make([]*Record, 0, n)
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		if _, err := s.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// noSealed is a Replay callback for stores that hold no sealed entries.
func noSealed([]byte) error { return nil }

// replayAll collects every replayed record plus the snapshot blob.
func replayAll(t *testing.T, s JobStore) ([]byte, []*Record) {
	t.Helper()
	_, snap, out := replaySealed(t, s)
	return snap, out
}

// replaySealed collects the sealed entries, the snapshot blob and every
// replayed record.
func replaySealed(t *testing.T, s JobStore) (sealed [][]byte, snap []byte, out []*Record) {
	t.Helper()
	snap, err := s.Replay(func(e []byte) error {
		sealed = append(sealed, e)
		return nil
	}, func(r *Record) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return sealed, snap, out
}

// entries builds sealed entries from strings.
func entries(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// dirNames lists the names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range des {
		names = append(names, e.Name())
	}
	return names
}

// TestWALRoundTrip: records written to a WAL replay identically after a
// reopen, sequence numbers keep increasing, and field fidelity is exact.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, w, 25)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	snap, got := replayAll(t, w2)
	if snap != nil {
		t.Fatalf("unexpected snapshot %q", snap)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	// Appends continue the sequence, not restart it.
	rec := testRecord(99)
	seq, err := w2.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(len(want))+1 {
		t.Errorf("next seq = %d, want %d", seq, len(want)+1)
	}
}

// TestWALSnapshotTruncation: a snapshot bounds the log. It appends its
// sealed entries and rotates the log, and the rotated file goes once the
// snapshot absorbs it; replay returns the sealed entries, the snapshot
// and only the later records, and all of it survives a reopen.
func TestWALSnapshotTruncation(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 20)
	state := []byte(`{"jobs":20}`)
	sealed := entries(`{"id":1}`, `{"id":2}`)
	if err := w.WriteSnapshot(20, sealed, state); err != nil {
		t.Fatal(err)
	}
	if got := w.AppendsSinceSnapshot(); got != 0 {
		t.Errorf("appends since snapshot = %d, want 0", got)
	}
	if got, want := dirNames(t, dir), []string{logName(2), sealedName, snapName}; !reflect.DeepEqual(got, want) {
		t.Errorf("directory after the snapshot holds %v, want %v", got, want)
	}
	if got := w.Stats().WALBytes; got != 0 {
		t.Errorf("log bytes after snapshot = %d, want 0", got)
	}

	// Two more records land after the snapshot.
	post := []*Record{testRecord(100), testRecord(101)}
	for _, r := range post {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	gotSealed, snap, got := replaySealed(t, w2)
	if !reflect.DeepEqual(gotSealed, sealed) {
		t.Errorf("sealed entries = %q, want %q", gotSealed, sealed)
	}
	if !bytes.Equal(snap, state) {
		t.Errorf("snapshot = %q, want %q", snap, state)
	}
	if len(got) != 2 || !reflect.DeepEqual(got[0], post[0]) || !reflect.DeepEqual(got[1], post[1]) {
		t.Errorf("post-snapshot replay = %+v, want %+v", got, post)
	}
	// Sequence numbering continues past the snapshot across reopen.
	if seq, err := w2.Append(testRecord(5)); err != nil || seq != 23 {
		t.Errorf("seq after snapshot reopen = %d (%v), want 23", seq, err)
	}
	st := w2.Stats()
	if st.SnapshotBytes != int64(len(state)) {
		t.Errorf("snapshot bytes = %d, want %d", st.SnapshotBytes, len(state))
	}
}

// TestWALStaleFramesSkipped simulates a crash between the snapshot's
// rename and the deletion of the log file it absorbs: frames whose
// sequence the snapshot absorbs must be skipped at replay, not
// double-applied.
func TestWALStaleFramesSkipped(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 5)
	walRaw, err := os.ReadFile(filepath.Join(dir, logName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSnapshot(5, nil, []byte("S")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Put the absorbed file back, as if its deletion never ran.
	if err := os.WriteFile(filepath.Join(dir, logName(1)), walRaw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	snap, got := replayAll(t, w2)
	if string(snap) != "S" {
		t.Errorf("snapshot = %q", snap)
	}
	if len(got) != 0 {
		t.Errorf("replayed %d stale records, want 0", len(got))
	}
	if got := w2.AppendsSinceSnapshot(); got != 0 {
		t.Errorf("appends since snapshot = %d, want 0", got)
	}
	// The next snapshot deletes the stale file.
	appendN(t, w2, 1)
	if err := w2.WriteSnapshot(6, nil, []byte("S6")); err != nil {
		t.Fatal(err)
	}
	if got, want := dirNames(t, dir), []string{logName(3), sealedName, snapName}; !reflect.DeepEqual(got, want) {
		t.Errorf("directory after the next snapshot holds %v, want %v", got, want)
	}
}

// TestWALStats: counters move with appends, fsyncs, and snapshots.
func TestWALStats(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 3)
	st := w.Stats()
	if st.Appends != 3 || st.Fsyncs < 3 || st.WALBytes <= 0 || st.AppendBytes != uint64(st.WALBytes) {
		t.Errorf("stats = %+v", st)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Fsyncs; got < 4 {
		t.Errorf("fsyncs after Sync = %d, want >= 4", got)
	}
	if err := w.WriteSnapshot(3, nil, []byte("x")); err != nil {
		t.Fatal(err)
	}
	st = w.Stats()
	if st.Snapshots != 1 || st.WALBytes != 0 || st.SnapshotBytes != 1 {
		t.Errorf("post-snapshot stats = %+v", st)
	}
}

// TestWALSnapshotDirSyncFailure injects a directory-sync failure into the
// rotation that starts WriteSnapshot: the snapshot must report the error
// and leave the log as it was, because without a durable name for the
// new log file a crash could lose the frames appended to it.
func TestWALSnapshotDirSyncFailure(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := appendN(t, w, 8)

	realSyncDir := syncDir
	syncDir = func(string) error { return fmt.Errorf("injected dir-sync failure") }
	defer func() { syncDir = realSyncDir }()

	if err := w.WriteSnapshot(8, entries("E"), []byte(`{"jobs":8}`)); err == nil {
		t.Fatal("WriteSnapshot succeeded despite dir-sync failure")
	}
	if got, want := dirNames(t, dir), []string{logName(1), sealedName}; !reflect.DeepEqual(got, want) {
		t.Errorf("directory after the failed snapshot holds %v, want %v", got, want)
	}
	if got := w.AppendsSinceSnapshot(); got != len(recs) {
		t.Errorf("appends since snapshot = %d, want %d", got, len(recs))
	}
	// Every record must still replay from the intact log.
	if sealed, _, got := replaySealed(t, w); len(got) != len(recs) || len(sealed) != 0 {
		t.Fatalf("replay after failed snapshot = %d records and %d sealed entries, want %d and 0", len(got), len(sealed), len(recs))
	}

	// With the failure cleared the same snapshot goes through and the
	// absorbed log goes.
	syncDir = realSyncDir
	if err := w.WriteSnapshot(8, entries("E"), []byte(`{"jobs":8}`)); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().WALBytes; got != 0 {
		t.Errorf("log bytes after successful snapshot = %d, want 0", got)
	}
	if sealed, _, _ := replaySealed(t, w); !reflect.DeepEqual(sealed, entries("E")) {
		t.Errorf("sealed entries = %q, want [E]", sealed)
	}
}

// TestWALCloseReportsSyncFailure: Close must surface sync/close errors
// instead of dropping them — a failed final flush is a durability event.
func TestWALCloseReportsSyncFailure(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 2)
	if err := w.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	// The files are already closed: a second Close must report the failed
	// sync/close rather than returning nil.
	if err := w.Close(); err == nil {
		t.Fatal("second Close returned nil, want error from closed files")
	}
}

// TestWALDirHoldsLogAndSnapshot: a new store's directory holds
// sealed.bin and the first numbered log, and a snapshot adds
// snapshot.bin. Each snapshot adds the next log file and deletes
// the ones it absorbs, so with appends going on between a snapshot's
// capture and its write, two log files stay: the one rotated out, which
// still holds later frames, and the one taking appends.
func TestWALDirHoldsLogAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	checkDir := func(names ...string) {
		t.Helper()
		if got := dirNames(t, dir); !reflect.DeepEqual(got, names) {
			t.Errorf("directory holds %v, want %v", got, names)
		}
	}
	checkDir(logName(1), sealedName)
	for n := uint64(1); n <= 4; n++ {
		appendN(t, w, 4)
		through := w.Stats().Appends
		appendN(t, w, 2)
		if err := w.WriteSnapshot(through, entries(fmt.Sprint(n)), []byte("S")); err != nil {
			t.Fatal(err)
		}
		checkDir(logName(n), logName(n+1), sealedName, snapName)
	}
	sealed, _, recs := replaySealed(t, w)
	if !reflect.DeepEqual(sealed, entries("1", "2", "3", "4")) || len(recs) != 2 {
		t.Errorf("replay = sealed %q and %d records, want [1 2 3 4] and 2", sealed, len(recs))
	}
}

// TestWALReplayDetectsReplacedSnapshot: the WAL keeps only the snapshot's
// sequence and sizes, so Replay reads snapshot.bin and the sealed entries
// back from disk. When the snapshot went missing, turned corrupt or
// carries another sequence since open, or a sealed entry no longer reads
// back, Replay must fail instead of returning an empty state, because the
// log frames the snapshot absorbed are already gone.
func TestWALReplayDetectsReplacedSnapshot(t *testing.T) {
	other := func(seq uint64) []byte {
		state := []byte(`{"jobs":9}`)
		raw := binary.LittleEndian.AppendUint64(nil, seq)
		raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(state))
		return append(raw, state...)
	}
	for name, replace := range map[string]func(path string) error{
		"deleted":   os.Remove,
		"garbage":   func(p string) error { return os.WriteFile(p, []byte("garbage snapshot"), 0o644) },
		"other seq": func(p string) error { return os.WriteFile(p, other(99), 0o644) },
		"sealed entry corrupt": func(p string) error {
			sealed := filepath.Join(filepath.Dir(p), sealedName)
			raw, err := os.ReadFile(sealed)
			if err != nil {
				return err
			}
			raw[len(raw)-1] ^= 0xff
			return os.WriteFile(sealed, raw, 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWAL(dir, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, w, 5)
			if err := w.WriteSnapshot(5, entries("E1", "E2"), []byte(`{"jobs":5}`)); err != nil {
				t.Fatal(err)
			}
			appendN(t, w, 2)
			w.Close()

			w2, err := OpenWAL(dir, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if err := replace(filepath.Join(dir, snapName)); err != nil {
				t.Fatal(err)
			}
			delivered := 0
			snap, err := w2.Replay(noSealed, func(*Record) error { delivered++; return nil })
			if err == nil {
				t.Fatalf("Replay over a replaced snapshot returned nil error (snapshot %q, %d records)", snap, delivered)
			}
			if delivered != 0 {
				t.Errorf("Replay delivered %d records before failing, want 0", delivered)
			}
		})
	}
}
