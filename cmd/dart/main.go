// Command dart runs the DART pipeline on one document: acquisition,
// extraction, database generation, consistency checking, card-minimal
// repair, and (optionally) the interactive operator validation loop.
//
// Usage:
//
//	dart -in doc.html [-metadata md.txt | -scenario cashbudget|catalog]
//	     [-interactive] [-show-milp] [-solver milp|cardsearch|greedy]
//	     [-timeout 30s] [-trace out.jsonl]
//	     [-decisions out.jsonl] [-replay in.jsonl]
//
// -decisions exports the validation session's suggestion/decision journal
// as JSONL; -replay restores a journal before the run, re-applying its
// decisions non-interactively (combine with -interactive to resume a
// half-finished session by hand).
//
// With no -in, the built-in running example of the paper (Fig. 1 with the
// 250-for-220 acquisition error) is processed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"dart"
	"dart/internal/core"
	"dart/internal/docgen"
	"dart/internal/metadata"
	"dart/internal/obs"
	"dart/internal/repair"
	"dart/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dart:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		inFile       = flag.String("in", "", "input document (HTML or scan text); empty = built-in running example")
		metadataFile = flag.String("metadata", "", "designer metadata file")
		scenarioName = flag.String("scenario", "cashbudget", "built-in scenario when -metadata is absent: cashbudget, catalog or balancesheet")
		interactive  = flag.Bool("interactive", false, "validate proposed repairs on stdin")
		showMILP     = flag.Bool("show-milp", false, "print the S*(AC) MILP instance (Fig. 4 style)")
		solverName   = flag.String("solver", "milp", "repair solver: milp, milp-literal, cardsearch, greedy-aggregate, greedy-local")
		saveFile     = flag.String("save", "", "write the repaired database to this file (relational text format)")
		lpFile       = flag.String("save-lp", "", "write the S*(AC) MILP instance to this file (CPLEX LP format)")
		timeout      = flag.Duration("timeout", 0, "abort the run after this long (e.g. 30s); 0 = no limit")
		traceFile    = flag.String("trace", "", "write the run's span trace to this file as JSONL (one span per line)")
		decisionsOut = flag.String("decisions", "", "write the validation session's suggestion/decision journal to this file (JSONL)")
		replayFile   = flag.String("replay", "", "restore a recorded decision journal before the run and re-apply it non-interactively")
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *traceFile, err)
		}
		defer f.Close()
		tracer := obs.New(obs.Config{Capacity: 1, Export: f})
		root := tracer.StartTrace("run")
		ctx = obs.ContextWithSpan(ctx, root)
		// End the root before the deferred close so the trace is flushed;
		// a failing sink surfaces as an error rather than a silent no-op.
		defer func() {
			root.End()
			if err := tracer.ExportErr(); err != nil {
				fmt.Fprintf(os.Stderr, "dart: trace export: %v\n", err)
			} else {
				fmt.Printf("wrote trace to %s\n", *traceFile)
			}
		}()
	}

	md, err := loadMetadata(*metadataFile, *scenarioName)
	if err != nil {
		return err
	}
	src, err := loadDocument(*inFile)
	if err != nil {
		return err
	}
	solver, err := dart.SolverNamed(*solverName)
	if err != nil {
		return err
	}

	p := &dart.Pipeline{Metadata: md, Solver: solver}
	if *interactive {
		p.Operator = &dart.InteractiveOperator{In: os.Stdin, Out: os.Stdout}
	}
	if *replayFile != "" {
		f, err := os.Open(*replayFile)
		if err != nil {
			return fmt.Errorf("opening decision journal: %w", err)
		}
		events, err := repair.ReadJournal(f)
		f.Close()
		if err != nil {
			return err
		}
		p.Ledger = repair.Restore(events)
		fmt.Printf("restored %d journal events (%d suggestions, %d still open)\n",
			len(events), len(p.Ledger.List()), p.Ledger.OpenCount())
		if !*interactive {
			// Non-interactive replay: the journal must cover every decision;
			// leftovers mean it was recorded against different inputs.
			p.Decider = repair.RequireDecided{}
		}
	}

	acq, err := p.AcquireContext(ctx, src)
	if err != nil {
		return err
	}
	fmt.Printf("== Acquired database (%d instances, %d skipped rows, %d row errors) ==\n",
		len(acq.Instances), len(acq.SkippedRows), len(acq.RowErrors))
	fmt.Println(acq.Database)
	for _, s := range acq.SkippedRows {
		fmt.Printf("skipped row (score %.2f): %s\n", s.BestScore, s.Text)
	}
	for _, e := range acq.RowErrors {
		fmt.Println(e.Error())
	}

	if acq.Consistent() {
		fmt.Println("== Database satisfies all aggregate constraints; no repair needed ==")
		return nil
	}
	fmt.Printf("== %d constraint violations detected ==\n", len(acq.Violations))
	for _, v := range acq.Violations {
		fmt.Println("  ", v)
	}

	if *showMILP || *lpFile != "" {
		prob, err := core.Prepare(acq.Database, md.Constraints())
		if err != nil {
			return err
		}
		comp, err := core.Compile(prob.System(), core.CompileOptions{Formulation: core.FormulationLiteral})
		if err != nil {
			return err
		}
		if *showMILP {
			fmt.Println("== MILP instance S*(AC) ==")
			fmt.Println(comp.FormatProblem())
		}
		if *lpFile != "" {
			if err := writeFile(*lpFile, comp.Model.WriteLP); err != nil {
				return err
			}
			fmt.Printf("wrote MILP instance to %s\n", *lpFile)
		}
	}

	res, err := p.RepairContext(ctx, acq)
	if err != nil {
		return err
	}
	fmt.Printf("== Repair (%d updates) ==\n", res.Repair.Card())
	for _, u := range res.Repair.Updates {
		fmt.Println("  ", u)
	}
	if res.Validation != nil {
		fmt.Printf("== Validation: %d iterations, %d decisions (%d accepted, %d rejected) ==\n",
			res.Validation.Iterations, res.Validation.Examined,
			res.Validation.Accepted, res.Validation.Rejected)
		if *decisionsOut != "" {
			if err := writeFile(*decisionsOut, res.Validation.Ledger.WriteJournal); err != nil {
				return err
			}
			fmt.Printf("wrote decision journal to %s\n", *decisionsOut)
		}
	}
	fmt.Println("== Repaired database ==")
	fmt.Println(res.Repaired)
	if *saveFile != "" {
		if err := writeFile(*saveFile, res.Repaired.Write); err != nil {
			return err
		}
		fmt.Printf("wrote repaired database to %s\n", *saveFile)
	}
	return nil
}

// writeFile creates name, streams content into it, and closes it, reporting
// every failure with the output filename in the message.
func writeFile(name string, content func(io.Writer) error) (err error) {
	f, cerr := os.Create(name)
	if cerr != nil {
		return fmt.Errorf("creating %s: %w", name, cerr)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing %s: %w", name, cerr)
		}
	}()
	if werr := content(f); werr != nil {
		return fmt.Errorf("writing %s: %w", name, werr)
	}
	return nil
}

func loadMetadata(file, scenarioName string) (*metadata.Metadata, error) {
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return metadata.Parse(string(src))
	}
	return scenario.Named(scenarioName)
}

func loadDocument(file string) (string, error) {
	if file == "" {
		// Built-in demo: Fig. 1 with the paper's acquisition error.
		doc := docgen.RunningExampleDocument()
		doc.Tables[0].Rows[3][1].Text = "250"
		return doc.HTML(), nil
	}
	src, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	return string(src), nil
}
