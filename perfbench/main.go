// Command perfbench is the repository's benchmark. It times exhaustive,
// checked verdicts on four workloads through the checker's public entry
// points — core.Explore for the explore workloads, the hmcd HTTP handler on a
// loopback listener for serve — and checks every verdict against an oracle.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload forward --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object carrying
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of a separate traced run, and the spans are written under .bench_build/.
// The exit code is non-zero when any verdict is wrong. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRounds is how many times a run sets its workload up; setup_s is the
// median, so one slow round (a cold page cache, a neighbour's burst) does
// not move it.
const setupRounds = 3

// named is a metric name with its unit.
type named struct{ name, unit string }

// endToEnd and perLayer are the metrics a run reports with --trace 0 and
// --trace 1. BENCHMARK.json lists the same names and units.
var (
	endToEnd = []named{
		{"setup_s", "s"}, {"verdict_p50_ms", "ms"}, {"verdict_tail_ms", "ms"},
		{"jobs_per_s", "1/s"}, {"execs_per_s", "1/s"}, {"peak_rss_mb", "MB"},
	}
	perLayer = []named{
		{"core.states", "count"}, {"core.memo_hit_frac", "ratio"}, {"core.checks_per_exec", "ratio"},
		{"core.revisits_tried", "count"}, {"core.revisit_waste_frac", "ratio"}, {"core.repair_fail", "count"},
		{"core.stuck_reads", "count"}, {"core.self_ms", "ms"},
		{"memmodel.calls", "count"}, {"memmodel.check_ms", "ms"}, {"memmodel.check_ns", "ns"},
		{"memmodel.pass_frac", "ratio"}, {"memmodel.share", "ratio"},
		{"memmodel.imm.check_ms", "ms"}, {"memmodel.arm.check_ms", "ms"},
		{"eg.view_ns", "ns"}, {"eg.key_ns", "ns"}, {"eg.clone_ns", "ns"}, {"eg.events_mean", "count"},
		{"interp.next_ns", "ns"}, {"interp.final_ns", "ns"},
		{"gc.allocs_per_exec", "count"}, {"gc.bytes_per_exec", "bytes"}, {"gc.pause_ms", "ms"},
		{"service.submit_ms", "ms"}, {"service.queue_ms", "ms"}, {"service.run_ms", "ms"},
		{"service.overhead_ms", "ms"}, {"service.cache_hit_frac", "ratio"}, {"service.hit_p50_ms", "ms"},
		{"service.miss_p50_ms", "ms"}, {"service.rejected", "count"},
		{"trace.overhead_ms", "ms"},
	}
)

// bench is a workload that has been set up and is ready to measure.
type bench interface {
	// measure runs the untraced closed loop for d and records the
	// end-to-end metrics.
	measure(d time.Duration, rep *report)
	// trace runs d/2 untraced (allocation deltas and the untraced latency
	// the tracing overhead is taken against), then d/2 traced, and records
	// the per-layer metrics.
	trace(d time.Duration, rep *report, tr *tracer)
	close()
}

// workloads maps each --workload name to its setup.
var workloads = map[string]func(seed int64) (bench, error){
	"forward":  func(int64) (bench, error) { return setupExplore(exploreSpecs["forward"]) },
	"revisit":  func(int64) (bench, error) { return setupExplore(exploreSpecs["revisit"]) },
	"hardware": func(int64) (bench, error) { return setupExplore(exploreSpecs["hardware"]) },
	"serve":    setupServe,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: forward, revisit, hardware or serve")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	commit := flag.String("commit", "unknown", "commit of the code under test, for the host block")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload forward|revisit|hardware|serve, --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}

	var b bench
	var setupS []float64
	for i := 0; i < setupRounds; i++ {
		if b != nil {
			b.close()
		}
		c0 := calibrate()
		t0 := time.Now()
		var err error
		if b, err = setup(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		raw := time.Since(t0).Seconds()
		setupS = append(setupS, raw*calRefMS/((c0+calibrate())/2)) // at the reference speed; see calibrate.go
	}
	defer b.close()

	rep := newReport()
	d := time.Duration(*seconds) * time.Second
	if *traced == 1 {
		tr := newTracer()
		b.trace(d, rep, tr)
		for _, pm := range perLayer {
			if _, ok := rep.res.Metrics[pm.name]; !ok {
				rep.set(pm.name, 0, pm.unit, 0) // a layer this workload does not enter
			}
		}
		path := fmt.Sprintf(".bench_build/perfbench-trace/%s-seed%d.jsonl", *name, *seed)
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		rep.note("trace: %d spans kept, %d past the in-memory bound, written to %s", len(tr.spans), tr.dropped, path)
	} else {
		b.measure(d, rep)
		rep.set("setup_s", median(setupS), "s", len(setupS))
		rep.set("peak_rss_mb", peakRSSMB(), "MB", 0)
	}

	host := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"commit": *commit,
	}
	hb, _ := json.Marshal(host) // a map of plain values always marshals
	fmt.Printf("host %s\n", hb)
	rep.print()
	if !rep.res.Correct {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set (getrusage), in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's verdict outcomes and metrics.
type report struct {
	res      result
	samples  map[string]int
	notes    []string
	failures map[string]int // reason → count
}

func newReport() *report {
	return &report{
		res:      result{Correct: true, Metrics: map[string]metric{}},
		samples:  map[string]int{},
		failures: map[string]int{},
	}
}

// ok counts n attempted jobs whose verdicts checked out.
func (r *report) ok(n int) { r.res.Attempted += n }

// fail counts one attempted job that failed, was refused or returned a
// wrong verdict.
func (r *report) fail(job, why string) {
	r.res.Attempted++
	r.res.Failed++
	r.res.Correct = false
	r.failures[job+": "+why]++
}

// set records a metric; n is the number of samples a timing was taken
// from (0 for counts and ratios).
func (r *report) set(name string, v float64, unit string, n int) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes one line per metric, the notes and failures, and the JSON
// result as the last line.
func (r *report) print() {
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		if s := r.samples[n]; s > 0 {
			fmt.Printf("%-26s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, s)
		} else {
			fmt.Printf("%-26s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Printf("fail_frac %.4f (%d of %d jobs)\n", ratio(float64(r.res.Failed), float64(r.res.Attempted)), r.res.Failed, r.res.Attempted)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for why, n := range r.failures {
		fmt.Fprintf(os.Stderr, "FAIL x%d %s\n", n, why)
	}
	if r.res.Attempted == 0 {
		// Nothing ran (a run shorter than one verdict): not a valid result.
		r.res.Correct = false
	}
	line, _ := json.Marshal(r.res) // metrics are finite numbers
	fmt.Println(string(line))
}
