package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"hmc/internal/core"
	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

func TestJobSequenceIsDeterministic(t *testing.T) {
	p1, s1 := mustSequence(t, 7)
	p2, s2 := mustSequence(t, 7)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("the same seed gave two different job sequences")
	}
	p3, _ := mustSequence(t, 8)
	if reflect.DeepEqual(p1, p3) {
		t.Fatal("seeds 7 and 8 gave the same pairs")
	}
	hot := 0
	for _, k := range s1 {
		if p1[k].Test != "" {
			hot++
		}
	}
	if f := float64(hot) / float64(len(s1)); f < hotFrac-0.02 || f > hotFrac+0.02 {
		t.Errorf("hot share %.3f, want about %.2f", f, hotFrac)
	}
}

func mustSequence(t *testing.T, seed int64) ([]serveJob, []int) {
	t.Helper()
	pairs, seq, err := jobSequence(seed)
	if err != nil {
		t.Fatal(err)
	}
	return pairs, seq
}

func TestGeneratedSourcesParseAndValidate(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		pairs, _ := mustSequence(t, seed)
		fps := map[string]bool{}
		for _, j := range pairs {
			if j.Source == "" {
				if _, ok := litmus.ByName(j.Test); !ok {
					t.Fatalf("seed %d: no corpus test %q", seed, j.Test)
				}
				continue
			}
			p, err := litmus.Parse(j.Source)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, j.Source)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, j.Source)
			}
			if n := j.ref.stats.Executions; n < 1 || n > maxGenExecs {
				t.Fatalf("seed %d: %d executions, want 1..%d\n%s", seed, n, maxGenExecs, j.Source)
			}
			if fp := p.Fingerprint(); fps[fp] {
				t.Fatalf("seed %d: two generated sources share fingerprint %s", seed, fp)
			} else {
				fps[fp] = true
			}
		}
		if len(fps) != poolSources {
			t.Fatalf("seed %d: %d generated sources, want %d", seed, len(fps), poolSources)
		}
	}
}

func TestQuantilesReportSampleCount(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if v, n := quantile(xs, 0.5); v != 3 || n != 5 {
		t.Errorf("p50 = %v (n=%d), want 3 (n=5)", v, n)
	}
	if v, n := quantile(xs, 0.99); v != 5 || n != 5 {
		t.Errorf("p99 = %v (n=%d), want 5 (n=5)", v, n)
	}
	if v, n := quantile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("empty p50 = %v (n=%d), want 0 (n=0)", v, n)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("quantile reordered its input")
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		v, q float64
	}{
		{100, 90, 0.90},    // ten samples beyond the 11th-slowest
		{5000, 4950, 0.99}, // capped at p99
		{12, 6, 0.5},       // floored at the median
	} {
		if v, q, n := tail(seq(c.n)); v != c.v || q != c.q || n != c.n {
			t.Errorf("tail of %d = %v (p%v, n=%d), want %v (p%v)", c.n, v, q, n, c.v, c.q)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSetCalibratedScalesToReferenceSpeed(t *testing.T) {
	slices := []loopStats{
		{latMS: []float64{10, 30}, execs: 4, wall: time.Second},
		{latMS: []float64{20, 20}, execs: 4, wall: time.Second},
	}
	// At the reference speed times pass through; on a host at half of it
	// (every burst takes twice the reference time) they halve.
	for _, c := range []struct {
		burst float64
		want  map[string]float64
	}{
		{calRefMS, map[string]float64{"verdict_p50_ms": 20, "verdict_tail_ms": 20, "jobs_per_s": 2, "execs_per_s": 4}},
		{2 * calRefMS, map[string]float64{"verdict_p50_ms": 10, "verdict_tail_ms": 10, "jobs_per_s": 4, "execs_per_s": 8}},
	} {
		rep := newReport()
		setCalibrated(rep, slices, []float64{c.burst, c.burst, c.burst})
		for name, want := range c.want {
			if got := rep.res.Metrics[name].Value; got != want {
				t.Errorf("burst %v ms: %s = %v, want %v", c.burst, name, got, want)
			}
		}
	}
}

// TestTimedModelIsNeutral checks that tracing observes without changing
// the exploration: the wrapped run's Stats equal the bare run's, and the
// wrapper sees exactly one call per counted consistency check.
func TestTimedModelIsNeutral(t *testing.T) {
	for _, c := range []struct {
		p     *prog.Program
		model string
	}{{gen.SBN(4), "tso"}, {gen.LBN(4), "imm"}, {gen.LBN(4), "arm"}, {gen.IncN(2, 2), "sc"}} {
		m, err := memmodel.ByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := core.Explore(c.p, core.Options{Model: m, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		l := &layers{modelNS: map[string]int64{}, modelVerdicts: map[string]int{}}
		tm := &timedModel{inner: m, p: c.p, tr: newTracer(), l: l}
		traced, err := core.Explore(c.p, core.Options{Model: tm, Workers: 1, OnExecution: tm.onExecution})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare.Stats, traced.Stats) {
			t.Errorf("%s/%s: traced stats %+v, bare %+v", c.p.Name, c.model, traced.Stats, bare.Stats)
		}
		if tm.calls != traced.ConsistencyChecks || l.probes == 0 {
			t.Errorf("%s/%s: %d wrapped calls (%d probes), %d checks", c.p.Name, c.model, tm.calls, l.probes, traced.ConsistencyChecks)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, the program %d", names, len(workloads))
	}
	same := func(what string, got []struct{ Name, Unit string }, want []named) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
