package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"dart"
	"dart/internal/aggrcons"
	"dart/internal/docgen"
	"dart/internal/metadata"
	"dart/internal/ocr"
	"dart/internal/relational"
	"dart/internal/service"
)

// setups is how many times a run sets its workload up; setup_s is the
// median. The last set-up is the one measured.
const setups = 3

// repeatSetup runs setup the configured number of times, each after a
// forced GC so an earlier set-up's garbage is not billed to the next, and
// returns the median duration in seconds.
func repeatSetup(setup func() error) (float64, error) {
	var ds []float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return median(ds), nil
}

// heapMiB returns the live heap after a forced GC. The second GC frees
// what sync.Pool victim caches kept through the first.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// memCounters returns the cumulative heap bytes allocated and GC cycles
// completed; unlike runtime.ReadMemStats it does not stop the world, so it
// can run between two measured calls.
func memCounters() (allocBytes, gcs uint64) {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64(), sample[1].Value.Uint64()
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// which it sorts in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

// median returns the middle of xs (the mean of the middle two for an even
// count), sorting xs in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return percentile(xs, 0.5)
	}
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// repairKey is the canonical form of a repair: its dartd wire JSON, so
// in-process repairs and dartd job results compare byte for byte.
func repairKey(r *dart.Repair) string {
	b, err := json.Marshal(service.EncodeRepair(r))
	if err != nil {
		panic(err) // a RepairJSON always encodes
	}
	return string(b)
}

// digestOf hashes repair keys in order.
func digestOf(keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// repairLog checks that every time a document is processed again its
// repair is the one it got the first time, and keeps the keys of the
// digest prefix.
type repairLog struct {
	first  map[int]string
	prefix int
}

func newRepairLog(prefix int) *repairLog {
	return &repairLog{first: map[int]string{}, prefix: prefix}
}

// seen reports whether input doc was processed before.
func (l *repairLog) seen(doc int) bool {
	_, ok := l.first[doc]
	return ok
}

// record files the repair of input doc; it reports false when the repair
// differs from an earlier one of the same input.
func (l *repairLog) record(doc int, key string) bool {
	if k, ok := l.first[doc]; ok {
		return k == key
	}
	l.first[doc] = key
	return true
}

// digest hashes the repairs of inputs 0..prefix-1; ok is false when some
// of them were never processed.
func (l *repairLog) digest() (string, bool) {
	keys := make([]string, l.prefix)
	for i := range keys {
		k, ok := l.first[i]
		if !ok {
			return "", false
		}
		keys[i] = k
	}
	return digestOf(keys), true
}

// verify reports an error unless db satisfies every constraint.
func verify(db *relational.Database, acs []*aggrcons.Constraint) error {
	if db == nil {
		return fmt.Errorf("no repaired database")
	}
	viols, err := aggrcons.Check(db, acs, 1e-6)
	if err != nil {
		return err
	}
	if len(viols) > 0 {
		return fmt.Errorf("repaired database violates %d ground constraints (first: %s)", len(viols), viols[0])
	}
	return nil
}

// sameDB reports whether two databases hold the same tuples in the same
// order.
func sameDB(a, b *relational.Database) bool {
	names := a.RelationNames()
	if len(names) != len(b.RelationNames()) {
		return false
	}
	for _, name := range names {
		ra, rb := a.Relation(name), b.Relation(name)
		if rb == nil || ra.Len() != rb.Len() {
			return false
		}
		tb := rb.Tuples()
		for i, t := range ra.Tuples() {
			if t.String() != tb[i].String() {
				return false
			}
		}
	}
	return true
}

// input is one generated document: the rendering the program sees (HTML or
// scan text, alternating) and the ground truth the operator oracle reads.
type input struct {
	src   string
	truth *relational.Database
}

// eligible keeps OCR misreads off the year cell, which spans the whole
// table (as in experiment E10).
func eligible(table, row, col int, text string) bool { return !(row == 0 && col == 0) }

// render corrupts doc and renders input i: even inputs as HTML, odd ones as
// scan text.
func render(i int, doc *docgen.Document, truth *relational.Database, misreads int, stringRate float64, rng *rand.Rand) input {
	noisy, _ := ocr.Corrupt(doc, ocr.Options{NumericErrors: misreads, StringRate: stringRate, EligibleNumeric: eligible}, rng)
	src := noisy.HTML()
	if i%2 == 1 {
		src = noisy.ScanText()
	}
	return input{src: src, truth: truth}
}

// budgetInputs generates n cash-budget documents of the given length.
func budgetInputs(rng *rand.Rand, n, years, misreads int, stringRate float64) []input {
	out := make([]input, n)
	for i := range out {
		b := docgen.RandomBudget(rng, 2000, years)
		out[i] = render(i, docgen.BudgetDocument(b), docgen.BudgetDatabase(b), misreads, stringRate, rng)
	}
	return out
}

// balanceInputs generates n balance-sheet documents of the given length.
func balanceInputs(rng *rand.Rand, n, years, misreads int) []input {
	out := make([]input, n)
	for i := range out {
		y := docgen.RandomBalanceSheet(rng, 2000, years)
		out[i] = render(i, docgen.BalanceSheetDocument(y), docgen.BalanceSheetDatabase(y), misreads, 0, rng)
	}
	return out
}

// parseMetadata parses a scenario's metadata text; set-up pays for it on
// every repetition, as a process start would.
func parseMetadata(src string) (*metadata.Metadata, error) {
	md, err := metadata.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parsing metadata: %w", err)
	}
	return md, nil
}
