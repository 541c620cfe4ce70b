package passes

import "testing"

func TestInScope(t *testing.T) {
	cases := []struct {
		path     string
		suffixes []string
		want     bool
	}{
		{"dart/internal/core", []string{"internal/core"}, true},
		{"dart/internal/corex", []string{"internal/core"}, false},
		{"dart/internal/store", []string{"internal/core"}, false},
		{"dart/internal/anything", nil, true},
		// "/..." wildcard: the root and everything beneath it.
		{"dart/internal/analysis", []string{"internal/analysis/..."}, true},
		{"dart/internal/analysis/cfg", []string{"internal/analysis/..."}, true},
		{"dart/internal/analysis/lockcheck", []string{"internal/analysis/..."}, true},
		{"dart/internal/analysisx", []string{"internal/analysis/..."}, false},
		{"dart/cmd/dartd", []string{"cmd/dart"}, false},
		{"dart/cmd/dart", []string{"cmd/dart"}, true},
	}
	for _, c := range cases {
		if got := InScope(c.path, c.suffixes); got != c.want {
			t.Errorf("InScope(%q, %v) = %v, want %v", c.path, c.suffixes, got, c.want)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("registry has %d analyzers, want 7", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer %s", a.Name)
		}
		seen[a.Name] = true
		if _, ok := Scopes[a.Name]; !ok {
			t.Errorf("analyzer %s has no scope entry", a.Name)
		}
	}
	for name := range Scopes {
		if !seen[name] {
			t.Errorf("scope entry %s names no registered analyzer", name)
		}
	}
}

func TestActive(t *testing.T) {
	names := func(path string) map[string]bool {
		out := map[string]bool{}
		for _, a := range Active(path) {
			out[a.Name] = true
		}
		return out
	}
	svc := names("dart/internal/service")
	for _, want := range []string{"ctxloop", "lockcheck", "spanleak", "walorder", "errsink", "lockhold"} {
		if !svc[want] {
			t.Errorf("internal/service missing %s: %v", want, svc)
		}
	}
	if svc["floatcmp"] {
		t.Errorf("internal/service has out-of-scope pass: %v", svc)
	}
	anl := names("dart/internal/analysis/dataflow")
	if !anl["ctxloop"] || !anl["errsink"] {
		t.Errorf("analysis subtree missing wildcard passes: %v", anl)
	}
}
