package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"hmc/internal/core"
	"hmc/internal/gen"
	"hmc/internal/prog"
)

// This file backs `hmc-bench -json` / `-baseline`: a small tracked suite
// of explorations whose *work counters* (executions, states, consistency
// checks, revisit candidates) are deterministic for a given engine, so CI
// can diff them against a committed BENCH_explore.json and fail on a
// real algorithmic regression. Wall-clock is recorded for trend plots but
// never gated — CI machines are too noisy for a time bar.

// BenchRow is one tracked benchmark's measurement.
type BenchRow struct {
	Name              string `json:"name"`
	Model             string `json:"model"`
	Executions        int    `json:"executions"`
	Blocked           int    `json:"blocked"`
	States            int    `json:"states"`
	ConsistencyChecks int    `json:"consistency_checks"`
	// SinkExtensions is the forward steps admitted without a consistency
	// check (core.Stats.SinkExtensions). It is informational, not gated:
	// work that moves from checks to sinks shows as a fall in
	// consistency_checks.
	SinkExtensions int `json:"sink_extensions"`
	RevisitsTried  int `json:"revisits_tried"`
	// AllocsPerExec is heap allocations per explored execution (runtime
	// Mallocs delta across the run, divided by Executions, the least of
	// benchReps runs). Unlike wall-clock it barely moves between machines,
	// so it IS gated — it is the counter that catches an allocation
	// regression on the hot path (a dropped pool, a per-check slice) that
	// the work counters can't see.
	AllocsPerExec int64 `json:"allocs_per_exec"`
	NS            int64 `json:"ns"` // wall-clock, least of benchReps runs; informational only
}

// benchReps is how often BenchExplore runs each row. The exploration's
// pools (views, consistency scratch, revisit scratch) are sync.Pools,
// whose items sit in per-P slots: whether a run finds them warm depends on
// which P its goroutine lands on after the settling GC, and on a row with
// a single execution a cold start moved allocs_per_exec by 14% (177 vs
// 201 on indexer(3)/sc). The least Mallocs delta over a few runs is the
// warm-pool count, which does not depend on scheduling.
const benchReps = 3

// BenchReport is the BENCH_explore.json payload.
type BenchReport struct {
	Suite string     `json:"suite"`
	Rows  []BenchRow `json:"rows"`
}

// benchJobs is the tracked suite. Parametric families rather than corpus
// litmus tests: big enough that a pruning or revisit regression moves the
// counters by orders of magnitude, small enough for every CI run.
func benchJobs(opts Options) []struct {
	p     *prog.Program
	model string
} {
	type job = struct {
		p     *prog.Program
		model string
	}
	jobs := []job{
		{gen.SBN(8), "sc"},
		{gen.SBN(8), "tso"},
		{gen.IndexerN(3), "sc"},
		{gen.IncN(3, 2), "sc"},
		{gen.LBN(8), "imm"},
		{gen.LBN(8), "arm"},
	}
	if !opts.Quick {
		jobs = append(jobs, job{gen.SBN(10), "tso"}, job{gen.IncN(3, 3), "sc"})
	}
	return jobs
}

// BenchExplore runs the tracked suite and returns the report.
func BenchExplore(opts Options) (*BenchReport, error) {
	r := &BenchReport{Suite: "explore"}
	for _, j := range benchJobs(opts) {
		// Settle the heap so the Mallocs delta measures the exploration,
		// not a concurrently finishing sweep from the previous row.
		runtime.GC()
		var res *core.Result
		var allocs, ns int64
		for rep := 0; rep < benchReps; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, d, err := explore("bench", j.p, j.model)
			if err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&after)
			a := int64(after.Mallocs - before.Mallocs)
			if rep == 0 || a < allocs {
				allocs = a
			}
			if rep == 0 || d.Nanoseconds() < ns {
				ns = d.Nanoseconds()
			}
			res = got
		}
		r.Rows = append(r.Rows, BenchRow{
			Name:              j.p.Name,
			Model:             j.model,
			Executions:        res.Stats.Executions,
			Blocked:           res.Stats.Blocked,
			States:            res.Stats.States,
			ConsistencyChecks: res.Stats.ConsistencyChecks,
			SinkExtensions:    res.Stats.SinkExtensions,
			RevisitsTried:     res.Stats.RevisitsTried,
			AllocsPerExec:     allocs / int64(max1(res.Stats.Executions)),
			NS:                ns,
		})
	}
	return r, nil
}

// WriteJSON writes the report, indented, with a trailing newline.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// ReadBenchReport parses a BENCH JSON payload.
func ReadBenchReport(rd io.Reader) (*BenchReport, error) {
	var r BenchReport
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("bench baseline: %w", err)
	}
	return &r, nil
}

// Table renders the report as a harness table (for the human-readable
// hmc-bench output alongside the JSON file).
func (r *BenchReport) Table() *Table {
	t := &Table{
		ID:      "BENCH",
		Title:   "tracked exploration counters (suite " + r.Suite + ")",
		Columns: []string{"program", "model", "execs", "blocked", "states", "checks", "sinks", "revisits", "allocs/exec", "time"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Model, row.Executions, row.Blocked, row.States,
			row.ConsistencyChecks, row.SinkExtensions, row.RevisitsTried, row.AllocsPerExec, ms(time.Duration(row.NS)))
	}
	return t
}

// CompareBaseline checks the current report against a committed baseline:
// any tracked work counter growing past baseline·(1+tolerance) — or a
// baseline row the current suite no longer runs — is a regression and
// returns an error naming every offender. Counters shrinking is an
// improvement, never an error; wall-clock is ignored. Allocations per
// execution are gated like the work counters (they are machine-stable
// enough), but only when the baseline row recorded them — an old
// baseline without the field never trips the gate.
func CompareBaseline(current, baseline *BenchReport, tolerance float64) error {
	cur := map[string]BenchRow{}
	for _, row := range current.Rows {
		cur[row.Name+"/"+row.Model] = row
	}
	var bad []string
	for _, base := range baseline.Rows {
		key := base.Name + "/" + base.Model
		now, ok := cur[key]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: tracked benchmark missing from the current suite", key))
			continue
		}
		check := func(counter string, got, want int) {
			if float64(got) > float64(want)*(1+tolerance) {
				bad = append(bad, fmt.Sprintf("%s: %s regressed %d -> %d (+%.0f%%, tolerance %.0f%%)",
					key, counter, want, got, 100*(float64(got)/float64(want)-1), 100*tolerance))
			}
		}
		check("executions", now.Executions, base.Executions)
		check("blocked", now.Blocked, base.Blocked)
		check("states", now.States, base.States)
		check("consistency_checks", now.ConsistencyChecks, base.ConsistencyChecks)
		check("revisits_tried", now.RevisitsTried, base.RevisitsTried)
		if base.AllocsPerExec > 0 &&
			float64(now.AllocsPerExec) > float64(base.AllocsPerExec)*(1+tolerance) {
			bad = append(bad, fmt.Sprintf("%s: allocs_per_exec regressed %d -> %d (+%.0f%%, tolerance %.0f%%)",
				key, base.AllocsPerExec, now.AllocsPerExec,
				100*(float64(now.AllocsPerExec)/float64(base.AllocsPerExec)-1), 100*tolerance))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench baseline: %d regression(s):\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
