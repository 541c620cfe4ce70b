package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame and body decoders:
// neither may panic, and every record either one decodes must survive an
// encodeBody/decodeBody round trip unchanged. The body decoder is fuzzed
// directly as well because random frames almost never pass the CRC.
func FuzzDecodeFrame(f *testing.F) {
	for _, r := range []*Record{
		{Type: RecSubmit, Seq: 1, UnixNano: 1_700_000_000_000_000_000, JobID: "job-000001", State: "queued", Blob: []byte(`{"document":"<table></table>"}`)},
		{Type: RecTransition, Seq: 2, UnixNano: -5, JobID: "job-000001", State: "running", Attempts: 2, TraceID: "00000000deadbeef", Error: "boom"},
		{Type: RecResult, Seq: 3, JobID: "job-000001", Blob: []byte(`{"repair":{"card":1}}`)},
		{Type: RecSpans, Seq: 4, JobID: "job-000001", TraceID: "00000000deadbeef", Blob: []byte(`{"spans":9}`)},
		{Type: RecRepair, Seq: 5, JobID: "job-000001", State: "accepted", Blob: []byte(`{"kind":"accepted"}`)},
	} {
		frame := encodeFrame(nil, r)
		if got, n, err := decodeFrame(frame); err != nil || n != len(frame) || !reflect.DeepEqual(got, r) {
			f.Fatalf("seed %v does not decode back (n=%d, err=%v): %+v", r.Type, n, err, got)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, n, err := decodeFrame(data); err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("decodeFrame consumed %d of %d bytes", n, len(data))
			}
			checkBodyRoundTrip(t, rec)
		}
		if rec, err := decodeBody(data); err == nil {
			checkBodyRoundTrip(t, rec)
		}
	})
}

// checkBodyRoundTrip re-encodes a decoded record and decodes it again.
func checkBodyRoundTrip(t *testing.T, rec *Record) {
	t.Helper()
	again, err := decodeBody(encodeBody(nil, rec))
	if err != nil {
		t.Fatalf("re-encoded record %+v does not decode: %v", rec, err)
	}
	if !reflect.DeepEqual(again, rec) {
		t.Fatalf("round trip changed the record:\n got  %+v\n want %+v", again, rec)
	}
}

// FuzzWALReplay writes arbitrary bytes as jobs.wal, and optionally as
// snapshot.bin, then opens the store and replays it. Open and Replay must
// not panic or allocate from a hostile length prefix; with the snapshot
// left out the replayed records must re-encode to exactly the log prefix
// open kept; with it, replay must deliver the snapshot's blob and just the
// records it does not absorb; and the next Append must continue the
// sequence past every record and the snapshot.
func FuzzWALReplay(f *testing.F) {
	dir := f.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		f.Fatal(err)
	}
	appendN(f, w, 6)
	realLog, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	if err := w.WriteSnapshot(6, []byte(`{"jobs":6}`)); err != nil {
		f.Fatal(err)
	}
	appendN(f, w, 2)
	w.Close()
	realSnap, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		f.Fatal(err)
	}
	postLog, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	// A job as older builds logged it, with a spans frame after the
	// running transition.
	var legacy []byte
	for i, r := range []*Record{
		{Type: RecSubmit, JobID: "job-000001", State: "queued", Blob: []byte(`{"document":"x"}`)},
		{Type: RecTransition, JobID: "job-000001", State: "running", Attempts: 1, TraceID: "00000000deadbeef"},
		{Type: RecSpans, JobID: "job-000001", TraceID: "00000000deadbeef", Blob: []byte(`{"spans":9}`)},
		{Type: RecResult, JobID: "job-000001", Blob: []byte(`{}`)},
	} {
		r.Seq = uint64(i + 1)
		legacy = encodeFrame(legacy, r)
	}
	// A frame whose seq is an overlong uvarint under a valid CRC: it does
	// not re-encode to its own bytes, so the decoder must refuse it.
	overlong := []byte{byte(RecSubmit), 0x81, 0x00, 0, 0, 0, 0, 0, 0, 0}
	overlong = binary.LittleEndian.AppendUint32(append([]byte{byte(len(overlong))}, overlong...), crc32.ChecksumIEEE(overlong))

	f.Add(realLog, []byte(nil), false)
	f.Add(postLog, realSnap, true)
	f.Add(realLog[:len(realLog)-3], realSnap, true)
	f.Add(legacy, []byte(nil), false)
	f.Add(append(append([]byte(nil), legacy...), overlong...), []byte(nil), false)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, realSnap[:snapHeader-1], true)
	f.Fuzz(func(t *testing.T, log, snap []byte, withSnap bool) {
		dir := t.TempDir()
		writeFile(t, filepath.Join(dir, walName), log)
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		all, kept, _ := openReplay(t, dir)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(log)); grew > limit {
			t.Fatalf("open and replay of a %d-byte log allocated %d bytes, over %d", len(log), grew, limit)
		}
		if !bytes.HasPrefix(log, kept) {
			t.Fatalf("open kept %d bytes that are not a prefix of the log", len(kept))
		}
		var enc []byte
		for _, r := range all {
			enc = encodeFrame(enc, r)
		}
		if !bytes.Equal(enc, kept) {
			t.Fatalf("%d replayed records re-encode to %d bytes, want the %d-byte kept prefix", len(all), len(enc), len(kept))
		}
		if !withSnap {
			return
		}

		// Same log, now under the snapshot.
		dir = t.TempDir()
		writeFile(t, filepath.Join(dir, walName), log)
		writeFile(t, filepath.Join(dir, snapName), snap)
		snapSeq, blob, valid, _ := readSnapshot(dir)
		got, _, gotSnap := openReplay(t, dir)
		want := all
		if valid {
			want = nil
			for _, r := range all {
				if r.Seq > snapSeq {
					want = append(want, r)
				}
			}
		}
		if len(blob) == 0 {
			blob = nil
		}
		if !reflect.DeepEqual(got, want) || !bytes.Equal(gotSnap, blob) {
			t.Fatalf("replay under the snapshot (valid=%v seq=%d) = %d records + %q, want %d records + %q",
				valid, snapSeq, len(got), gotSnap, len(want), blob)
		}
	})
}

// openReplay opens the WAL in dir, replays it, checks that the next
// Append continues the sequence, and returns the replayed records, the
// log bytes open kept, and the snapshot blob.
func openReplay(t *testing.T, dir string) (recs []*Record, kept, snap []byte) {
	t.Helper()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer w.wal.Close() // not Close: its fsync would dominate each run
	snap, err = w.Replay(func(r *Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if kept, err = os.ReadFile(filepath.Join(dir, walName)); err != nil {
		t.Fatal(err)
	}
	var last uint64
	if seq, _, ok, _ := readSnapshot(dir); ok {
		last = seq
	}
	for off := 0; off < len(kept); {
		r, n, err := decodeFrame(kept[off:])
		if err != nil {
			t.Fatalf("kept log has a bad frame at %d: %v", off, err)
		}
		last = max(last, r.Seq)
		off += n
	}
	seq, err := w.Append(testRecord(0))
	switch {
	case last == math.MaxUint64:
		if err == nil {
			t.Fatalf("append after seq %d succeeded with seq %d, want an error", last, seq)
		}
	case err != nil || seq != last+1:
		t.Fatalf("append after replay: seq %d, err %v, want seq %d", seq, err, last+1)
	}
	return recs, kept, snap
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
