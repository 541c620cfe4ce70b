package store

import (
	"fmt"
	"testing"
	"time"
)

// benchRecord is a realistically sized record: a transition plus a small
// result blob, the common case on dartd's append path.
func benchRecord(i int) *Record {
	return &Record{
		Type:     RecTransition,
		UnixNano: time.Date(2026, 8, 7, 0, 0, 0, i, time.UTC).UnixNano(),
		JobID:    fmt.Sprintf("job-%06d", i),
		State:    "running",
		Attempts: 1,
		TraceID:  "0123456789abcdef",
		Blob:     []byte(`{"repair":{"card":1,"updates":[{"item":{"relation":"R","tuple":3,"attr":"V"},"old":{"domain":"Z","value":250},"new":{"domain":"Z","value":220}}]}}`),
	}
}

// BenchmarkWALAppend measures one async-mode append (frame encode + two
// positioned writes); fsync-mode cost is the device's sync latency and is
// not a useful CI number.
func BenchmarkWALAppend(b *testing.B) {
	w, err := OpenWAL(b.TempDir(), WALOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures a full sequential replay of a 1000-record log,
// the cold-boot recovery path.
func BenchmarkReplay(b *testing.B) {
	w, err := OpenWAL(b.TempDir(), WALOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	const n = 1000
	for i := 0; i < n; i++ {
		if _, err := w.Append(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if _, err := w.Replay(noSealed, func(*Record) error { count++; return nil }); err != nil {
			b.Fatal(err)
		}
		if count != n {
			b.Fatalf("replayed %d, want %d", count, n)
		}
	}
}
