package lexicon

import (
	"math"
	"strings"
	"testing"
)

// refLevenshtein, refSimilarity and refBestMatch are the plain matching
// scan BestMatch replaced: every item re-normalized and scored in full for
// every query. They are the specification BestMatch must reproduce bit for
// bit.
func refLevenshtein(a, b string) int {
	if a == b {
		return 0
	}
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

func refNormalize(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

func refSimilarity(a, b string) float64 {
	a = refNormalize(a)
	b = refNormalize(b)
	if a == b {
		return 1
	}
	m := max(len(a), len(b))
	if m == 0 {
		return 1
	}
	s := 1 - float64(refLevenshtein(a, b))/float64(m)
	if s < 0 {
		return 0
	}
	return s
}

// refBestMatch builds the domain the way Add always has (first item of each
// normalized form wins) and scans it with refSimilarity.
func refBestMatch(items []string, s string) (Match, bool) {
	seen := map[string]bool{}
	var dom []string
	for _, it := range items {
		if k := refNormalize(it); !seen[k] {
			seen[k] = true
			dom = append(dom, it)
		}
	}
	if len(dom) == 0 {
		return Match{}, false
	}
	best := Match{Score: -1}
	for _, it := range dom {
		if sc := refSimilarity(s, it); sc > best.Score {
			best = Match{Item: it, Score: sc}
		}
	}
	return best, true
}

// FuzzBestMatchMatchesScan checks BestMatch against the reference scan on
// arbitrary domains and queries: the same item, the same score bits and the
// same ok; Normalize and Levenshtein must agree with their references too.
// The domain is the first argument split at '|', so duplicates under case
// and whitespace, empty items and empty queries all occur.
func FuzzBestMatchMatchesScan(f *testing.F) {
	f.Add("beginning cash|cash sales|receivables|total cash receipts", "bgnning cesh")
	f.Add("Beginning Cash| beginning  cash |BEGINNING CASH", "beginning cash")
	f.Add("|  |a", "")
	f.Add("", "anything")
	f.Add("abc|abd|abe", "ab")
	f.Add("payment of accounts|capital expenditure|long-term financing", "paymnt of acounts")
	f.Add("x|xx|xxx|xxxx", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	f.Fuzz(func(t *testing.T, domain, query string) {
		var items []string
		if domain != "" {
			items = strings.Split(domain, "|")
		}
		got, gotOK := NewDomain("D", items...).BestMatch(query)
		want, wantOK := refBestMatch(items, query)
		if gotOK != wantOK || got.Item != want.Item || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
			t.Fatalf("BestMatch(%q) over %q = %+v, %v; scan gives %+v, %v", query, items, got, gotOK, want, wantOK)
		}
		if a, b := Normalize(query), refNormalize(query); a != b {
			t.Fatalf("Normalize(%q) = %q, want %q", query, a, b)
		}
		if a, b := Levenshtein(domain, query), refLevenshtein(domain, query); a != b {
			t.Fatalf("Levenshtein(%q, %q) = %d, want %d", domain, query, a, b)
		}
	})
}
