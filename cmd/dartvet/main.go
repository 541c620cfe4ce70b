// Command dartvet is the repository's multichecker: it runs the custom
// static-analysis passes of internal/analysis over the module (code mode)
// and the constraint/metadata spec vetter over designer metadata files
// (spec mode).
//
// Code mode (default):
//
//	dartvet [-novet] [-format text|json|github] [packages ...]
//
// loads the named packages (default ./...) with full type information and
// applies each registered pass (see internal/analysis/passes for the
// catalog and per-pass package scopes) to the packages in its scope.
// -format github emits workflow-command lines (::error file=...) that
// GitHub Actions turns into inline PR annotations.
//
// Unless -novet is given it also execs "go vet" on the same patterns, so a
// single dartvet invocation is the whole lint story. Findings may be
// suppressed with a reasoned directive:
//
//	//dartvet:allow ctxloop -- eviction loop, bounded by c.cap
//
// A directive that suppresses nothing is itself reported under the
// "staleallow" pseudo-analyzer, so allows cannot outlive their finding.
//
// Spec mode:
//
//	dartvet -spec [-format text|json] file.meta [file2.meta ...]
//
// parses each metadata file and reports specvet diagnostics (non-steady
// constraints, dangling attribute references, classification conflicts,
// infeasible constraint pairs).
//
// Exit status is 1 when any finding or diagnostic is reported, 2 on usage
// or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"dart/internal/analysis"
	"dart/internal/analysis/passes"
	"dart/internal/analysis/specvet"
	"dart/internal/metadata"
)

func main() {
	var (
		specMode = flag.Bool("spec", false, "vet designer metadata files instead of Go packages")
		noVet    = flag.Bool("novet", false, "code mode: skip running go vet alongside the custom passes")
		format   = flag.String("format", "text", "output format: text, json, or github (workflow commands)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: dartvet [-novet] [-format text|json|github] [packages ...]\n       dartvet -spec [-format text|json] file.meta ...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	switch *format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(os.Stderr, "dartvet: unknown -format %q (want text, json, or github)\n", *format)
		os.Exit(2)
	}

	var code int
	if *specMode {
		code = runSpec(flag.Args(), *format == "json")
	} else {
		code = runCode(flag.Args(), *format, *noVet)
	}
	os.Exit(code)
}

// runCode applies the registered passes (and go vet) to the named packages.
func runCode(patterns []string, format string, noVet bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dartvet:", err)
		return 2
	}
	var findings []analysis.Finding
	for _, pkg := range pkgs {
		active := passes.Active(pkg.ImportPath)
		if len(active) == 0 {
			continue
		}
		fs, err := analysis.Run([]*analysis.Package{pkg}, active)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dartvet:", err)
			return 2
		}
		findings = append(findings, fs...)
	}
	switch format {
	case "json":
		json.NewEncoder(os.Stdout).Encode(findings)
	case "github":
		for _, f := range findings {
			fmt.Println(githubCommand(f))
		}
	default:
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	code := 0
	if len(findings) > 0 {
		code = 1
	}
	if !noVet {
		if vetCode := runGoVet(patterns); vetCode != 0 && code == 0 {
			code = vetCode
		}
	}
	return code
}

// githubCommand renders a finding as a GitHub Actions workflow command so
// CI runs surface findings as inline annotations. Newlines and the
// characters the command syntax reserves must be percent-escaped.
func githubCommand(f analysis.Finding) string {
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=%s::%s",
		esc(f.Position.Filename), f.Position.Line, f.Position.Column,
		esc(f.Analyzer), esc(f.Message))
}

// runGoVet execs the standard vet tool on the same patterns so CI needs a
// single entry point.
func runGoVet(patterns []string) int {
	cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); ok {
			return 1
		}
		fmt.Fprintln(os.Stderr, "dartvet: go vet:", err)
		return 2
	}
	return 0
}

// specReport pairs a metadata file with its diagnostics for -format json
// output.
type specReport struct {
	File        string               `json:"file"`
	Error       string               `json:"error,omitempty"`
	Diagnostics []specvet.Diagnostic `json:"diagnostics,omitempty"`
}

// runSpec parses and vets each metadata file.
func runSpec(files []string, asJSON bool) int {
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "dartvet: -spec requires at least one metadata file")
		return 2
	}
	var reports []specReport
	bad := false
	for _, file := range files {
		rep := specReport{File: file}
		src, err := os.ReadFile(file)
		if err != nil {
			rep.Error = err.Error()
			bad = true
		} else if md, perr := metadata.Parse(string(src)); perr != nil {
			rep.Error = perr.Error()
			bad = true
		} else if diags := specvet.Vet(md); len(diags) > 0 {
			rep.Diagnostics = diags
			bad = true
		}
		reports = append(reports, rep)
	}
	if asJSON {
		json.NewEncoder(os.Stdout).Encode(reports)
	} else {
		for _, rep := range reports {
			if rep.Error != "" {
				fmt.Printf("%s: %s\n", rep.File, rep.Error)
			}
			for _, d := range rep.Diagnostics {
				fmt.Printf("%s: %s\n", rep.File, d)
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}
