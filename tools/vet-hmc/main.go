// Command vet-hmc is the repo's project-invariant analyzer suite — a
// stdlib-only multichecker bundling the five analyzers that encode the
// coding invariants the checker and daemon depend on:
//
//	determinism      no wall clock, global rand or unsorted map iteration
//	                 in counter-affecting packages (identical parallel
//	                 execution sets and exactly-once resume assume it)
//	optsig           every core.Options field covered by the checkpoint
//	                 options signature or explicitly excluded
//	metricsreg       hmcd metrics: literal hmcd_* names, _total on
//	                 counters only, exactly-once registration, no
//	                 write-only or export-only series
//	lockhold         no mutex held across a blocking call in the service
//	                 layer
//	recoverboundary  exported core entry points route through the
//	                 panic→error boundary (moved from tools/analyzers)
//
// Usage:
//
//	go run ./tools/vet-hmc ./...          # CI invocation: whole module
//	go run ./tools/vet-hmc -list          # describe the analyzers
//	go run ./tools/vet-hmc -run determinism,lockhold ./internal/...
//
// The driver loads only the packages some analyzer matches, type-checks
// them from `go list -export` data, and prints findings as
// file:line:col: [analyzer] message, exiting 1 if there are any. See
// DESIGN.md row 21 for the invariant table.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"hmc/tools/vet-hmc/analysis"
	"hmc/tools/vet-hmc/analyzers/determinism"
	"hmc/tools/vet-hmc/analyzers/lockhold"
	"hmc/tools/vet-hmc/analyzers/metricsreg"
	"hmc/tools/vet-hmc/analyzers/optsig"
	"hmc/tools/vet-hmc/analyzers/recoverboundary"
)

var suite = []*analysis.Analyzer{
	determinism.Analyzer,
	lockhold.Analyzer,
	metricsreg.Analyzer,
	optsig.Analyzer,
	recoverboundary.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected, err := selectAnalyzers(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vet-hmc:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := runSuite(selected, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vet-hmc:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "vet-hmc: %d finding(s)\n", n)
		os.Exit(1)
	}
}

func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	if names == "" {
		return suite, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// runSuite resolves patterns, type-checks every package at least one
// analyzer matches, and returns the sorted findings.
func runSuite(analyzers []*analysis.Analyzer, patterns []string) ([]analysis.Diagnostic, error) {
	loader := analysis.NewLoader("")
	metas, err := loader.List(patterns...)
	if err != nil {
		return nil, err
	}

	// Work list first: export data is only needed for matched packages'
	// dependency closures.
	type work struct {
		meta      *analysis.Meta
		analyzers []*analysis.Analyzer
	}
	var jobs []work
	var matched []string
	for _, m := range metas {
		if m.Standard || len(m.GoFiles) == 0 {
			continue
		}
		var as []*analysis.Analyzer
		for _, a := range analyzers {
			if a.Match == nil || a.Match(m.ImportPath) {
				as = append(as, a)
			}
		}
		if len(as) > 0 {
			jobs = append(jobs, work{meta: m, analyzers: as})
			matched = append(matched, m.ImportPath)
		}
	}
	if len(jobs) == 0 {
		return nil, nil
	}
	if err := loader.LoadExports(matched...); err != nil {
		return nil, err
	}

	var diags []analysis.Diagnostic
	sink := func(d analysis.Diagnostic) { diags = append(diags, d) }
	for _, j := range jobs {
		pkg, err := loader.Check(j.meta.ImportPath, j.meta.Dir, j.meta.GoFiles)
		if err != nil {
			return nil, err
		}
		for _, a := range j.analyzers {
			if err := analysis.Analyze(a, pkg, loader.Fset, sink); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, j.meta.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, k int) bool {
		a, b := diags[i], diags[k]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}
