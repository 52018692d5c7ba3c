package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"hmc/internal/core"
	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/interp"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// pinned is what an explore verdict must report: the exact execution,
// blocked and exists counts of the program under the model.
type pinned struct{ Executions, Blocked, Exists int }

// exploreSpec is one job of an explore workload.
type exploreSpec struct {
	build func() *prog.Program
	model string
	want  pinned
}

func lb10() *prog.Program { return gen.LBN(10) }

// exploreSpecs are the explore workloads; a workload with several jobs
// alternates them. See README.md for why each was chosen.
var exploreSpecs = map[string][]exploreSpec{
	"forward":  {{func() *prog.Program { return gen.SBN(12) }, "tso", pinned{4096, 0, 1}}},
	"revisit":  {{func() *prog.Program { return gen.IncN(3, 3) }, "sc", pinned{1680, 0, 0}}},
	"hardware": {{lb10, "imm", pinned{1024, 0, 1}}, {lb10, "arm", pinned{1024, 0, 1}}},
}

type exploreJob struct {
	name  string
	p     *prog.Program
	model memmodel.Model
	want  pinned
	ref   core.Stats // the untraced warm-up's counters; every later run must match
}

type exploreBench struct {
	jobs []*exploreJob
	next int // the next job to run, so the jobs alternate across loops
}

// setupExplore builds the workload's programs and runs one untraced
// warm-up verdict per job, keeping its Stats as the reference.
func setupExplore(specs []exploreSpec) (bench, error) {
	b := &exploreBench{}
	for _, s := range specs {
		m, err := memmodel.ByName(s.model)
		if err != nil {
			return nil, err
		}
		j := &exploreJob{p: s.build(), model: m, want: s.want}
		j.name = j.p.Name + "/" + s.model
		res, err := core.Explore(j.p, core.Options{Model: m, Workers: 1})
		if why := j.check(res, err, nil); why != "" {
			return nil, fmt.Errorf("warm-up %s: %s", j.name, why)
		}
		j.ref = res.Stats
		b.jobs = append(b.jobs, j)
	}
	return b, nil
}

func (b *exploreBench) close() {}

// check returns why a verdict is wrong, or "" when it is right: it must be
// exhaustive, report the pinned counts, and — given a reference — match its
// Stats field for field.
func (j *exploreJob) check(res *core.Result, err error, ref *core.Stats) string {
	switch {
	case err != nil:
		return err.Error()
	case !res.Exhaustive():
		return "verdict not exhaustive"
	case res.Executions != j.want.Executions || res.Blocked != j.want.Blocked || res.ExistsCount != j.want.Exists:
		return fmt.Sprintf("executions/blocked/exists %d/%d/%d, want %d/%d/%d",
			res.Executions, res.Blocked, res.ExistsCount, j.want.Executions, j.want.Blocked, j.want.Exists)
	case res.Duplicates != 0 || res.StuckReads != 0 || len(res.Errors) != 0:
		return fmt.Sprintf("duplicates %d, stuck reads %d, errors %d", res.Duplicates, res.StuckReads, len(res.Errors))
	case ref != nil && !reflect.DeepEqual(res.Stats, *ref):
		return fmt.Sprintf("stats %+v differ from the untraced reference %+v", res.Stats, *ref)
	}
	return ""
}

// loopStats is what one closed loop (or one slice of it) measured.
type loopStats struct {
	latMS                   []float64
	execs                   int
	wall                    time.Duration
	mallocs, bytes, pauseNS uint64 // runtime.MemStats deltas (withMem only)
}

// loop runs verdicts back to back, alternating the jobs, until d has
// passed. withMem brackets each verdict with runtime.MemStats reads, outside
// the timed span.
func (b *exploreBench) loop(d time.Duration, rep *report, withMem bool, verdict func(*exploreJob) (*core.Result, error)) loopStats {
	var ls loopStats
	var before, after runtime.MemStats
	start := time.Now()
	for time.Since(start) < d {
		j := b.jobs[b.next%len(b.jobs)]
		b.next++
		if withMem {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		res, err := verdict(j)
		lat := time.Since(t0)
		if withMem {
			runtime.ReadMemStats(&after)
			ls.mallocs += after.Mallocs - before.Mallocs
			ls.bytes += after.TotalAlloc - before.TotalAlloc
			ls.pauseNS += after.PauseTotalNs - before.PauseTotalNs
		}
		if why := j.check(res, err, &j.ref); why != "" {
			rep.fail(j.name, why)
			continue
		}
		rep.ok(1)
		ls.latMS = append(ls.latMS, float64(lat)/1e6)
		ls.execs += res.Executions
	}
	ls.wall = time.Since(start)
	return ls
}

// plain is the untraced verdict: core.Explore on the bare model.
func plain(j *exploreJob) (*core.Result, error) {
	return core.Explore(j.p, core.Options{Model: j.model, Workers: 1})
}

func (b *exploreBench) measure(d time.Duration, rep *report) {
	slices, cal := runSliced(d, func(n time.Duration) loopStats {
		return b.loop(n, rep, false, plain)
	})
	setCalibrated(rep, slices, cal)
}

// probeEvery paces the eg and interp probes: one consistency check (and one
// complete execution) in this many is probed. Probing every call would
// make the traced run mostly probe.
const probeEvery = 8

// layers accumulates the per-layer totals of a traced loop.
type layers struct {
	verdicts                  int
	exploreNS, memNS, probeNS int64
	calls, pass               int
	events                    int64
	modelNS                   map[string]int64
	modelVerdicts             map[string]int
	viewNS, keyNS, cloneNS    int64
	nextNS, finalNS           int64
	probes, finals            int
	stats                     core.Stats // summed counters
}

// timedModel is the memmodel.Model handed to core.Explore in the traced
// run. It times every Consistent call as a child span of the explore span
// and, on every probeEvery-th call, probes eg and interp on the graph the
// call received — after the memmodel span closes, so probe time is never
// counted as model time. The probes only read the graph (Clone, which
// clears the source's ownership flags, runs on a private decoded copy), so
// exploration is unchanged; the traced Stats are checked against the
// untraced ones to prove it.
type timedModel struct {
	inner  memmodel.Model
	p      *prog.Program
	tr     *tracer
	job    int
	parent int
	l      *layers
	calls  int // this verdict's Consistent calls
	execs  int // this verdict's complete executions
}

func (m *timedModel) Name() string { return m.inner.Name() }

func (m *timedModel) Consistent(v *eg.View) bool {
	t0 := m.tr.now()
	ok := m.inner.Consistent(v)
	t1 := m.tr.now()
	m.tr.add("memmodel.Consistent", m.parent, m.job, t0, t1)
	m.calls++
	m.l.calls++
	if ok {
		m.l.pass++
	}
	m.l.memNS += t1 - t0
	m.l.events += int64(v.G.NumEvents())
	if m.calls%probeEvery == 0 {
		m.probe(v.G)
	}
	return ok
}

// probe times eg.GetView/PutView, Graph.Key, interp.Next over every thread
// and Graph.Clone on g, each as its own span.
func (m *timedModel) probe(g *eg.Graph) {
	t0 := m.tr.now()
	eg.PutView(eg.GetView(g))
	t1 := m.tr.now()
	_ = g.Key()
	t2 := m.tr.now()
	for t := 0; t < g.NumThreads(); t++ {
		interp.Next(m.p, g, t, 0)
	}
	t3 := m.tr.now()
	private, err := eg.EncodeGraph(g).Decode()
	if err != nil {
		panic(fmt.Sprintf("perfbench: graph does not round-trip: %v", err)) // a bug in eg
	}
	t4 := m.tr.now()
	private.Clone()
	t5 := m.tr.now()
	m.tr.add("eg.GetView+PutView", m.parent, m.job, t0, t1)
	m.tr.add("eg.Graph.Key", m.parent, m.job, t1, t2)
	m.tr.add("interp.Next", m.parent, m.job, t2, t3)
	m.tr.add("eg.Graph.Clone", m.parent, m.job, t4, t5)
	m.l.viewNS += t1 - t0
	m.l.keyNS += t2 - t1
	m.l.nextNS += t3 - t2
	m.l.cloneNS += t5 - t4
	m.l.probes++
	m.l.probeNS += t5 - t0
}

// onExecution probes interp.FinalState on every probeEvery-th complete
// execution.
func (m *timedModel) onExecution(g *eg.Graph, _ prog.FinalState) {
	m.execs++
	if m.execs%probeEvery != 0 {
		return
	}
	t0 := m.tr.now()
	interp.FinalState(m.p, g, 0)
	t1 := m.tr.now()
	m.tr.add("interp.FinalState", m.parent, m.job, t0, t1)
	m.l.finalNS += t1 - t0
	m.l.finals++
	m.l.probeNS += t1 - t0
}

func (b *exploreBench) trace(d time.Duration, rep *report, tr *tracer) {
	untraced := b.loop(d/2, rep, true, plain)
	l := &layers{modelNS: map[string]int64{}, modelVerdicts: map[string]int{}}
	jobID := 0
	traced := b.loop(d-d/2, rep, false, func(j *exploreJob) (*core.Result, error) {
		jobID++
		jobStart := tr.now()
		jobSpan, exploreSpan := tr.reserve(), tr.reserve()
		tm := &timedModel{inner: j.model, p: j.p, tr: tr, job: jobID, parent: exploreSpan, l: l}
		memBefore := l.memNS
		t0 := tr.now()
		res, err := core.Explore(j.p, core.Options{Model: tm, Workers: 1, OnExecution: tm.onExecution})
		t1 := tr.now()
		tr.addReserved(exploreSpan, "core.Explore", jobSpan, jobID, t0, t1)
		tr.addReserved(jobSpan, "job "+j.name, 0, jobID, jobStart, tr.now())
		if err != nil {
			return res, err
		}
		l.verdicts++
		l.exploreNS += t1 - t0
		l.modelNS[j.model.Name()] += l.memNS - memBefore
		l.modelVerdicts[j.model.Name()]++
		addStats(&l.stats, &res.Stats)
		if tm.calls != res.ConsistencyChecks {
			return res, fmt.Errorf("memmodel saw %d Consistent calls, Stats report %d checks", tm.calls, res.ConsistencyChecks)
		}
		return res, nil
	})

	n := float64(l.verdicts)
	s := &l.stats
	setCore(rep, s, n)
	rep.set("core.self_ms", ratio(float64(l.exploreNS-l.memNS-l.probeNS), n)/1e6, "ms", l.verdicts)

	rep.set("memmodel.calls", ratio(float64(l.calls), n), "count", 0)
	rep.set("memmodel.check_ms", ratio(float64(l.memNS), n)/1e6, "ms", l.verdicts)
	rep.set("memmodel.check_ns", ratio(float64(l.memNS), float64(l.calls)), "ns", l.calls)
	rep.set("memmodel.pass_frac", ratio(float64(l.pass), float64(l.calls)), "ratio", 0)
	rep.set("memmodel.share", ratio(float64(l.memNS), float64(l.exploreNS-l.probeNS)), "ratio", 0)
	for _, name := range []string{"imm", "arm"} {
		rep.set("memmodel."+name+".check_ms", ratio(float64(l.modelNS[name]), float64(l.modelVerdicts[name]))/1e6, "ms", l.modelVerdicts[name])
	}

	rep.set("eg.view_ns", ratio(float64(l.viewNS), float64(l.probes)), "ns", l.probes)
	rep.set("eg.key_ns", ratio(float64(l.keyNS), float64(l.probes)), "ns", l.probes)
	rep.set("eg.clone_ns", ratio(float64(l.cloneNS), float64(l.probes)), "ns", l.probes)
	rep.set("eg.events_mean", ratio(float64(l.events), float64(l.calls)), "count", 0)
	rep.set("interp.next_ns", ratio(float64(l.nextNS), float64(l.probes)), "ns", l.probes)
	rep.set("interp.final_ns", ratio(float64(l.finalNS), float64(l.finals)), "ns", l.finals)

	setGC(rep, untraced)

	// Tracing overhead: how much slower the traced verdict is than the
	// untraced one, beyond the probes it deliberately adds.
	up50, _ := quantile(untraced.latMS, 0.5)
	tp50, _ := quantile(traced.latMS, 0.5)
	rep.set("trace.overhead_ms", tp50-up50-ratio(float64(l.probeNS), n)/1e6, "ms", 0)
	rep.note("untraced p50 %.3f ms (n=%d), traced p50 %.3f ms (n=%d), probes %.3f ms/verdict",
		up50, len(untraced.latMS), tp50, len(traced.latMS), ratio(float64(l.probeNS), n)/1e6)
}

// addStats sums the counters the per-layer metrics use.
func addStats(dst, s *core.Stats) {
	dst.Executions += s.Executions
	dst.States += s.States
	dst.MemoHits += s.MemoHits
	dst.ConsistencyChecks += s.ConsistencyChecks
	dst.RevisitsTried += s.RevisitsTried
	dst.RevisitsTaken += s.RevisitsTaken
	dst.RevisitsRepairFail += s.RevisitsRepairFail
	dst.StuckReads += s.StuckReads
}

// setCore records the core layer's counters, per verdict where they are
// counts; n is the number of verdicts summed into s.
func setCore(rep *report, s *core.Stats, n float64) {
	rep.set("core.states", ratio(float64(s.States), n), "count", 0)
	rep.set("core.memo_hit_frac", ratio(float64(s.MemoHits), float64(s.States+s.MemoHits)), "ratio", 0)
	rep.set("core.checks_per_exec", ratio(float64(s.ConsistencyChecks), float64(s.Executions)), "ratio", 0)
	rep.set("core.revisits_tried", ratio(float64(s.RevisitsTried), n), "count", 0)
	rep.set("core.revisit_waste_frac", ratio(float64(s.RevisitsTried-s.RevisitsTaken), float64(s.RevisitsTried)), "ratio", 0)
	rep.set("core.repair_fail", ratio(float64(s.RevisitsRepairFail), n), "count", 0)
	rep.set("core.stuck_reads", float64(s.StuckReads), "count", 0)
}

// setGC records allocation and pause deltas per verified execution.
func setGC(rep *report, ls loopStats) {
	rep.set("gc.allocs_per_exec", ratio(float64(ls.mallocs), float64(ls.execs)), "count", 0)
	rep.set("gc.bytes_per_exec", ratio(float64(ls.bytes), float64(ls.execs)), "bytes", 0)
	rep.set("gc.pause_ms", ratio(float64(ls.pauseNS), float64(len(ls.latMS)))/1e6, "ms", len(ls.latMS))
}
