// Command hmc-bench regenerates the evaluation tables and figure series
// (experiments T1–T15 in DESIGN.md / EXPERIMENTS.md): the litmus verdict
// matrix, the comparisons against the herd-style enumerator and the
// operational store-buffer explorer, the scaling series, the
// dependency-revisit ablation, the fence repair matrix, the exploration
// statistics, the compilation and robustness matrices, the parallel
// and symmetry-reduction studies, the static-pruning study, the
// checkpoint/resume study and the instrumentation-overhead study.
//
// It is also the CI regression gate: -json runs a small tracked suite of
// explorations and writes their deterministic work counters (executions,
// states, consistency checks, revisit candidates) as BENCH_explore.json;
// -baseline diffs that suite against a committed baseline and exits
// nonzero when any counter grows more than 25% — wall-clock is recorded
// for trend plots but never gated.
//
// Usage:
//
//	hmc-bench                            # run every experiment
//	hmc-bench -run T3,T4                 # a subset
//	hmc-bench -quick                     # smaller parameter sweeps
//	hmc-bench -csv                       # machine-readable output
//	hmc-bench -json BENCH_explore.json   # tracked suite -> JSON
//	hmc-bench -json new.json -baseline BENCH_explore.json  # CI gate
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hmc/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hmc-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hmc-bench", flag.ContinueOnError)
	runList := fs.String("run", "all", "comma-separated experiment ids (T1..T15) or 'all'")
	quick := fs.Bool("quick", false, "shrink parameter sweeps")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonPath := fs.String("json", "", "run the tracked benchmark suite and write its counters as JSON to this file (skips the experiment tables)")
	baseline := fs.String("baseline", "", "compare the tracked suite against this committed BENCH JSON; >25% counter growth fails")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := harness.Options{Quick: *quick}

	// Bench mode: run the tracked suite, optionally persist it, optionally
	// gate it against the committed baseline. The experiment tables are a
	// separate concern and are skipped.
	if *jsonPath != "" || *baseline != "" {
		report, err := harness.BenchExplore(opts)
		if err != nil {
			return err
		}
		if err := report.Table().Render(out); err != nil {
			return err
		}
		if *jsonPath != "" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				return err
			}
			if err := report.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "bench counters written to %s\n", *jsonPath)
		}
		if *baseline != "" {
			f, err := os.Open(*baseline)
			if err != nil {
				return err
			}
			base, err := harness.ReadBenchReport(f)
			f.Close()
			if err != nil {
				return err
			}
			if err := harness.CompareBaseline(report, base, 0.25); err != nil {
				return err
			}
			fmt.Fprintf(out, "bench counters within 25%% of baseline %s (%d tracked rows)\n", *baseline, len(base.Rows))
		}
		return nil
	}

	ids := harness.Experiments()
	if *runList != "all" {
		ids = nil
		for _, id := range strings.Split(*runList, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	for _, id := range ids {
		table, err := harness.Run(id, opts)
		if err != nil {
			return err
		}
		if *csv {
			if err := table.CSV(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		} else if err := table.Render(out); err != nil {
			return err
		}
	}
	return nil
}
