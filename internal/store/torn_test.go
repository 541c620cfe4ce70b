package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWALTornWriteHardening is the exhaustive torn-tail sweep: with N
// whole frames on disk, the log is truncated at every byte offset inside
// the final frame (and one past the previous frame boundary). Every cut
// must open cleanly, replay exactly the first N-1 records, repair the file
// to the last valid frame, and accept new appends afterwards.
func TestWALTornWriteHardening(t *testing.T) {
	const n = 6
	master := t.TempDir()
	w, err := OpenWAL(master, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, w, n)
	w.Close()

	raw, err := os.ReadFile(filepath.Join(master, logName(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Start offset of the final frame, found by decoding the log.
	starts := frameStarts(t, raw)
	lastStart := int64(starts[n-1])
	// The full-length offset index older builds kept beside the log.
	var idxRaw []byte
	for _, off := range starts {
		idxRaw = binary.LittleEndian.AppendUint64(idxRaw, uint64(off))
	}

	for cut := int(lastStart); cut < len(raw); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName(1)), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// A stale index from an older build rides along: recovery must ignore it.
		if err := os.WriteFile(filepath.Join(dir, "jobs.idx"), idxRaw, 0o644); err != nil {
			t.Fatal(err)
		}

		tw, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		_, got := replayAll(t, tw)
		if len(got) != n-1 {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), n-1)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, got[i], want[i])
			}
		}
		// The torn tail is physically repaired…
		if fi, _ := os.Stat(filepath.Join(dir, logName(1))); fi.Size() != lastStart {
			t.Fatalf("cut %d: repaired log size = %d, want %d", cut, fi.Size(), lastStart)
		}
		// …and the store stays writable: the lost record can be re-appended.
		if seq, err := tw.Append(testRecord(n - 1)); err != nil || seq != uint64(n) {
			t.Fatalf("cut %d: append after repair seq=%d err=%v, want seq=%d", cut, seq, err, n)
		}
		_, got = replayAll(t, tw)
		if len(got) != n {
			t.Fatalf("cut %d: post-repair replay = %d records, want %d", cut, len(got), n)
		}
		tw.Close()
	}
}

// frameStarts decodes a whole, valid log and returns each frame's start
// offset.
func frameStarts(t *testing.T, raw []byte) []int {
	t.Helper()
	var starts []int
	for off := 0; off < len(raw); {
		_, n, err := decodeFrame(raw[off:])
		if err != nil {
			t.Fatalf("frame at offset %d: %v", off, err)
		}
		starts = append(starts, off)
		off += n
	}
	return starts
}

// TestWALCorruptMidFrame: a bit flip inside an interior frame ends the
// valid log at the previous frame — replay stops cleanly rather than
// delivering corrupt state.
func TestWALCorruptMidFrame(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 5)
	w.Close()

	path := filepath.Join(dir, logName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	third := frameStarts(t, raw)[3]
	raw[third+2] ^= 0xFF // corrupt frame 3's body
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("open over corruption: %v", err)
	}
	defer w2.Close()
	_, got := replayAll(t, w2)
	if len(got) != 3 {
		t.Errorf("replayed %d records past corruption, want 3", len(got))
	}
}

// TestWALCorruptSnapshotIgnored: a snapshot failing its CRC is dropped at
// open instead of poisoning recovery.
func TestWALCorruptSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 3)
	if err := w.WriteSnapshot(3, nil, []byte(`{"jobs":3}`)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	path := filepath.Join(dir, snapName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("open over corrupt snapshot: %v", err)
	}
	defer w2.Close()
	snap, got := replayAll(t, w2)
	if snap != nil || len(got) != 0 {
		t.Errorf("snap=%q records=%d, want nil snapshot and 0 records (log was truncated by the snapshot)", snap, len(got))
	}
	// The store still accepts appends with a fresh-but-continuing sequence.
	if _, err := w2.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
}
