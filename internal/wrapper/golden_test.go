package wrapper_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dart/internal/docgen"
	"dart/internal/lexicon"
	"dart/internal/metadata"
	"dart/internal/ocr"
	"dart/internal/scenario"
	"dart/internal/wrapper"
)

// goldenExtractHash pins everything Extract returns on the golden corpus.
// Matching is exact string and float arithmetic, so any change to the
// wrapper, the lexicon or the HTML parser that alters a binding, a score
// bit, a correction or a skipped row changes it.
const goldenExtractHash = "dc8fd5368a1207323ca3dc6bea69ffee7c124b7bdc5e37844849f86c0028fe33"

type goldenCase struct {
	name string
	md   *metadata.Metadata
	docs []string
}

// goldenCorpus generates, for each built-in scenario and string-noise rate,
// a few seeded documents in HTML and in scan-text-converted form, each
// carrying two numeric misreads.
func goldenCorpus(t *testing.T) []goldenCase {
	t.Helper()
	type scen struct {
		name string
		load func() (*metadata.Metadata, error)
		gen  func(*rand.Rand) *docgen.Document
	}
	scens := []scen{
		{"cashbudget", scenario.CashBudget, func(rng *rand.Rand) *docgen.Document {
			return docgen.BudgetDocument(docgen.RandomBudget(rng, 2000, 3))
		}},
		{"catalog", scenario.Catalog, func(rng *rand.Rand) *docgen.Document {
			return docgen.OrdersDocument(docgen.RandomOrders(rng, 5))
		}},
		{"balancesheet", scenario.BalanceSheet, func(rng *rand.Rand) *docgen.Document {
			return docgen.BalanceSheetDocument(docgen.RandomBalanceSheet(rng, 2000, 2))
		}},
	}
	var out []goldenCase
	for si, s := range scens {
		md, err := s.load()
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range []float64{0, 0.2, 0.6} {
			rng := rand.New(rand.NewSource(int64(1000*si) + int64(rate*100)))
			gc := goldenCase{name: fmt.Sprintf("%s/noise=%.1f", s.name, rate), md: md}
			for d := 0; d < 4; d++ {
				noisy, _ := ocr.Corrupt(s.gen(rng), ocr.Options{NumericErrors: 2, StringRate: rate}, rng)
				gc.docs = append(gc.docs, noisy.HTML(), scanToHTML(noisy.ScanText()))
			}
			out = append(out, gc)
		}
	}
	return out
}

// writeExtract serializes one Extract result: instances with their cell
// bindings, scores as float bits, raw texts and corrections, then the
// skipped rows.
func writeExtract(h io.Writer, instances []*wrapper.Instance, skipped []wrapper.Skipped) {
	bits := func(f float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	fmt.Fprintf(h, "instances %d\n", len(instances))
	for _, in := range instances {
		fmt.Fprintf(h, "%s t%d r%d %q\n", in.Pattern.Name, in.Table, in.Row, in.Raw)
		bits(in.Score)
		for _, c := range in.Cells {
			fmt.Fprintf(h, "%q", c.Value)
			bits(c.Score)
		}
		for _, c := range in.Corrections() {
			fmt.Fprintf(h, "corr t%d r%d %q %q->%q", c.Table, c.Row, c.Headline, c.From, c.To)
			bits(c.Score)
		}
	}
	fmt.Fprintf(h, "skipped %d\n", len(skipped))
	for _, s := range skipped {
		fmt.Fprintf(h, "t%d r%d %q", s.Table, s.Row, s.Text)
		bits(s.BestScore)
	}
}

// TestExtractGolden hashes Extract's output over the three scenarios, three
// string-noise rates and the three t-norms, and compares it with the hash
// the matching code produced before its normalized-domain rewrite.
func TestExtractGolden(t *testing.T) {
	h := sha256.New()
	for _, gc := range goldenCorpus(t) {
		for _, tn := range []lexicon.TNorm{lexicon.TNormMin, lexicon.TNormProduct, lexicon.TNormLukasiewicz} {
			w := gc.md.NewWrapper()
			w.TNorm = tn
			fmt.Fprintf(h, "case %s %s\n", gc.name, tn)
			for _, doc := range gc.docs {
				instances, skipped, err := w.Extract(doc)
				if err != nil {
					t.Fatal(err)
				}
				writeExtract(h, instances, skipped)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenExtractHash {
		t.Errorf("Extract golden hash = %s, want %s", got, goldenExtractHash)
	}
}

// TestConcurrentExtract runs one shared cash-budget wrapper from eight
// goroutines at once; every goroutine must see exactly the output of a
// sequential wrapper over its own parse of the metadata. The shared
// wrapper's hierarchy has restricted no domain yet, so the goroutines
// build its restrictions concurrently. Run under -race it also checks that
// Extract keeps no other mutable state on the Wrapper or its metadata.
func TestConcurrentExtract(t *testing.T) {
	var wrappers [2]*wrapper.Wrapper
	for i := range wrappers {
		md, err := metadata.Parse(scenario.CashBudgetSource())
		if err != nil {
			t.Fatal(err)
		}
		wrappers[i] = md.NewWrapper()
	}
	ref, w := wrappers[0], wrappers[1]
	rng := rand.New(rand.NewSource(19))
	var docs []string
	for d := 0; d < 6; d++ {
		noisy, _ := ocr.Corrupt(docgen.BudgetDocument(docgen.RandomBudget(rng, 2000, 3)),
			ocr.Options{NumericErrors: 1, StringRate: 0.4}, rng)
		docs = append(docs, noisy.HTML())
	}
	digest := func(w *wrapper.Wrapper) (string, error) {
		h := sha256.New()
		for _, doc := range docs {
			instances, skipped, err := w.Extract(doc)
			if err != nil {
				return "", err
			}
			writeExtract(h, instances, skipped)
		}
		return hex.EncodeToString(h.Sum(nil)), nil
	}
	want, err := digest(ref)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := digest(w)
			if err != nil {
				t.Error(err)
				return
			}
			if got != want {
				t.Errorf("concurrent Extract digest %s, sequential %s", got, want)
			}
		}()
	}
	wg.Wait()
}
