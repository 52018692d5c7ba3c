package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"hmc/internal/gen"
	"hmc/internal/memmodel"
	"hmc/internal/obs"
	"hmc/internal/prog"
)

// progressWorkload returns a program big enough to straddle several
// 1ms-cadence snapshot pauses but small enough for -race CI: three threads
// of plain stores to one location (the coherence-placement blow-up).
func progressWorkload() *prog.Program {
	b := prog.NewBuilder("progress-workload")
	x := b.Loc("x")
	for t := 0; t < 3; t++ {
		tb := b.Thread()
		for i := 0; i < 3; i++ {
			tb.Store(x, prog.Const(int64(10*t+i)))
		}
	}
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// checkMonotone asserts the cumulative counters never step backwards
// across the snapshot sequence and that Seq strictly increases.
func checkMonotone(t *testing.T, snaps []obs.ProgressSnapshot) {
	t.Helper()
	for i := 1; i < len(snaps); i++ {
		prev, cur := snaps[i-1], snaps[i]
		if cur.Seq != prev.Seq+1 {
			t.Errorf("snapshot %d: seq %d after %d", i, cur.Seq, prev.Seq)
		}
		type pair struct {
			name      string
			prev, cur int
		}
		for _, c := range []pair{
			{"Executions", prev.Executions, cur.Executions},
			{"Blocked", prev.Blocked, cur.Blocked},
			{"States", prev.States, cur.States},
			{"MemoHits", prev.MemoHits, cur.MemoHits},
			{"MemoSize", prev.MemoSize, cur.MemoSize},
			{"RevisitsTried", prev.RevisitsTried, cur.RevisitsTried},
			{"RevisitsTaken", prev.RevisitsTaken, cur.RevisitsTaken},
			{"ConsistencyChecks", prev.ConsistencyChecks, cur.ConsistencyChecks},
			{"Wave", prev.Wave, cur.Wave},
		} {
			if c.cur < c.prev {
				t.Errorf("snapshot %d: %s went backwards: %d -> %d", i, c.name, c.prev, c.cur)
			}
		}
		if cur.Elapsed < prev.Elapsed {
			t.Errorf("snapshot %d: elapsed went backwards", i)
		}
	}
}

// checkFinalMatchesResult asserts the last snapshot reports exactly the
// Result's stats.
func checkFinalMatchesResult(t *testing.T, snaps []obs.ProgressSnapshot, res *Result) {
	t.Helper()
	if len(snaps) == 0 {
		t.Fatal("no snapshots delivered")
	}
	last := snaps[len(snaps)-1]
	if !last.Final {
		t.Fatal("last snapshot must be marked Final")
	}
	for i, s := range snaps[:len(snaps)-1] {
		if s.Final {
			t.Errorf("snapshot %d marked Final before the last", i)
		}
	}
	if last.Executions != res.Executions || last.Blocked != res.Blocked ||
		last.States != res.States || last.MemoHits != res.MemoHits ||
		last.RevisitsTried != res.RevisitsTried || last.RevisitsTaken != res.RevisitsTaken ||
		last.ConsistencyChecks != res.ConsistencyChecks {
		t.Errorf("final snapshot %+v does not match result stats %+v", last, res.Stats)
	}
	for _, f := range []float64{last.ExecsPerSec, last.ChecksPerSec, last.EstimateMean} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Errorf("non-finite rate in final snapshot: %+v", last)
		}
	}
}

// TestProgressSnapshotsParallel is the satellite coverage test: progress
// under Workers: 8 (run with -race in CI) must deliver monotone snapshots
// whose final entry equals the Result.
func TestProgressSnapshotsParallel(t *testing.T) {
	m, _ := memmodel.ByName("sc")
	var snaps []obs.ProgressSnapshot
	res, err := Explore(progressWorkload(), Options{
		Model:   m,
		Workers: 8,
		Progress: &ProgressOptions{
			Every: time.Millisecond,
			Sink:  func(s obs.ProgressSnapshot) { snaps = append(snaps, s) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions == 0 {
		t.Fatal("workload explored nothing")
	}
	checkMonotone(t, snaps)
	checkFinalMatchesResult(t, snaps, res)
	// The sink runs during a pause on the Explore goroutine, so appending
	// without a lock above is safe; at 1ms cadence this workload must
	// yield periodic snapshots, not just the final one.
	if len(snaps) < 2 {
		t.Errorf("got %d snapshots, want at least a periodic one plus the final", len(snaps))
	}
	// Phase timers were on: calls must be counted.
	last := snaps[len(snaps)-1]
	if last.Phases.InterpCalls == 0 || last.Phases.ConsistencyCalls == 0 {
		t.Errorf("phase call counts missing: %+v", last.Phases)
	}
}

// TestProgressComposesWithCheckpoint runs progress and periodic
// checkpoints together under workers: both sinks must fire and the run
// must terminate (no pause deadlock) with intact totals.
func TestProgressComposesWithCheckpoint(t *testing.T) {
	m, _ := memmodel.ByName("sc")
	p := progressWorkload()
	plain, err := Explore(p, Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	var snaps []obs.ProgressSnapshot
	checkpoints := 0
	res, err := Explore(p, Options{
		Model:   m,
		Workers: 8,
		Progress: &ProgressOptions{
			Every: time.Millisecond,
			Sink:  func(s obs.ProgressSnapshot) { snaps = append(snaps, s) },
		},
		Checkpoint: &CheckpointOptions{
			EveryExecs: 50,
			Sink:       func(*Checkpoint) { checkpoints++ },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions != plain.Executions || res.States != plain.States {
		t.Errorf("observability changed the exploration: %d/%d vs plain %d/%d",
			res.Executions, res.States, plain.Executions, plain.States)
	}
	if checkpoints == 0 {
		t.Error("periodic checkpoints did not fire")
	}
	checkMonotone(t, snaps)
	checkFinalMatchesResult(t, snaps, res)
}

// TestProgressPausesEmitNoCheckpoints: a pause requested for a progress
// snapshot must not also emit a checkpoint. At Workers=1 every multiple of
// EveryExecs raises exactly one checkpoint request, so the sink must fire
// Executions/EveryExecs times however many snapshots the 1ms cadence adds.
func TestProgressPausesEmitNoCheckpoints(t *testing.T) {
	m, _ := memmodel.ByName("sc")
	const every = 100
	snaps, checkpoints := 0, 0
	res, err := Explore(progressWorkload(), Options{
		Model: m,
		Progress: &ProgressOptions{
			Every: time.Millisecond,
			Sink:  func(obs.ProgressSnapshot) { snaps++ },
		},
		Checkpoint: &CheckpointOptions{
			EveryExecs: every,
			Sink:       func(*Checkpoint) { checkpoints++ },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Executions / every; checkpoints != want {
		t.Errorf("%d periodic checkpoints for %d executions at EveryExecs=%d, want %d (with %d snapshots)",
			checkpoints, res.Executions, every, want, snaps)
	}
	if snaps < 2 {
		t.Errorf("got %d snapshots, want periodic ones besides the final", snaps)
	}
}

// TestProgressInterruptedRunEmitsFinal: a cancelled progress-only run
// still hard-stops (non-checkpointable interruption semantics are
// unchanged) and delivers a final snapshot matching the partial result.
func TestProgressInterruptedRunEmitsFinal(t *testing.T) {
	m, _ := memmodel.ByName("sc")
	ctx, cancel := context.WithCancel(context.Background())
	var snaps []obs.ProgressSnapshot
	res, err := Explore(gen.IncN(3, 3), Options{
		Model:   m,
		Context: ctx,
		Progress: &ProgressOptions{
			Every: time.Millisecond,
			Sink: func(s obs.ProgressSnapshot) {
				snaps = append(snaps, s)
				if !s.Final && s.Executions > 0 {
					cancel()
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Skip("run finished before the cancellation landed")
	}
	if res.Checkpoint != nil {
		t.Error("progress alone must not make the run checkpointable")
	}
	checkMonotone(t, snaps)
	checkFinalMatchesResult(t, snaps, res)
}

// TestProgressDoesNotPerturbResumeChain: progress is a transient knob —
// a checkpoint taken by an observed run resumes in an unobserved one (and
// vice versa), with totals equal to the straight run.
func TestProgressDoesNotPerturbResumeChain(t *testing.T) {
	m, _ := memmodel.ByName("sc")
	p := progressWorkload()
	plain, err := Explore(p, Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	var snaps []obs.ProgressSnapshot
	leg1, err := Explore(p, Options{
		Model:     m,
		FailAfter: 200,
		Progress: &ProgressOptions{
			Every: time.Millisecond,
			Sink:  func(s obs.ProgressSnapshot) { snaps = append(snaps, s) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if leg1.Checkpoint == nil {
		t.Fatal("FailAfter leg must produce a checkpoint")
	}
	checkFinalMatchesResult(t, snaps, leg1)
	leg2, err := Explore(p, Options{Model: m, ResumeFrom: leg1.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if leg2.Executions != plain.Executions || leg2.States != plain.States {
		t.Errorf("observed+resumed totals %d/%d, straight run %d/%d",
			leg2.Executions, leg2.States, plain.Executions, plain.States)
	}
}

// TestTraceEventsJSONL runs a traced exploration and checks the stream:
// every line parses, waves and snapshots appear, and revisit-taken events
// agree with the Result counter.
func TestTraceEventsJSONL(t *testing.T) {
	m, _ := memmodel.ByName("tso")
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	var snaps []obs.ProgressSnapshot
	res, err := Explore(gen.SBN(4), Options{
		Model: m,
		Trace: tr,
		Progress: &ProgressOptions{
			Every: time.Millisecond,
			Sink:  func(s obs.ProgressSnapshot) { snaps = append(snaps, s) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}
	if res.RevisitsTaken == 0 {
		t.Fatal("SB under tso must take revisits")
	}
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev obs.TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		kinds[ev.Kind]++
	}
	if kinds["revisit-tried"] != res.RevisitsTried {
		t.Errorf("revisit-tried events %d, counter %d", kinds["revisit-tried"], res.RevisitsTried)
	}
	if kinds["revisit-taken"] != res.RevisitsTaken {
		t.Errorf("revisit-taken events %d, counter %d", kinds["revisit-taken"], res.RevisitsTaken)
	}
	if kinds["revisit-incoherent"] != 0 {
		t.Errorf("SB has no rmw chains or po-loc prefixes to close a coherence cycle, yet %d revisit-incoherent events",
			kinds["revisit-incoherent"])
	}
	if kinds["snapshot"] != len(snaps) {
		t.Errorf("snapshot events %d, sink deliveries %d", kinds["snapshot"], len(snaps))
	}
	if int64(len(kinds)) == 0 || tr.Events() == 0 {
		t.Error("empty trace")
	}
}

// TestTraceIncoherentRevisits: on the rmw-counter family most tried
// revisits close a coherence cycle, and each is named in the trace. Every
// such revisit is also counted as a repair failure here (the family has no
// control or address dependencies, so there is no phase 2 to fire again).
func TestTraceIncoherentRevisits(t *testing.T) {
	m, _ := memmodel.ByName("sc")
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	res, err := Explore(gen.IncN(3, 2), Options{Model: m, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	incoherent := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev obs.TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if ev.Kind == "revisit-incoherent" {
			incoherent++
		}
	}
	if incoherent == 0 || incoherent > res.RevisitsRepairFail {
		t.Errorf("revisit-incoherent events %d, want in [1, RevisitsRepairFail=%d]", incoherent, res.RevisitsRepairFail)
	}
}

// TestTracePruneEvents: static pruning on a local-accumulator program
// must emit prune events matching the counters.
func TestTracePruneEvents(t *testing.T) {
	m, _ := memmodel.ByName("sc")
	p := gen.LocalRW(3, 2)
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	res, err := Explore(p, Options{Model: m, StaticAnalysis: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	pruned := res.StaticPrunedRf + res.StaticPrunedCo + res.StaticPrunedScans
	if pruned == 0 {
		t.Fatal("LocalRW must trigger static pruning")
	}
	total := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev obs.TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if ev.Kind == "prune" {
			total += ev.Count
		}
	}
	if total != pruned {
		t.Errorf("traced prune count %d, counters say %d", total, pruned)
	}
}

// TestProgressSinkPanicContained: a panicking sink must surface as an
// EngineError, not kill the process.
func TestProgressSinkPanicContained(t *testing.T) {
	m, _ := memmodel.ByName("sc")
	_, err := Explore(progressWorkload(), Options{
		Model: m,
		Progress: &ProgressOptions{
			Every: time.Nanosecond, // due immediately
			Sink:  func(obs.ProgressSnapshot) { panic("sink boom") },
		},
	})
	if err == nil {
		t.Fatal("panicking sink must fail the run")
	}
	if _, ok := AsEngineError(err); !ok {
		t.Fatalf("want EngineError, got %T: %v", err, err)
	}
}
