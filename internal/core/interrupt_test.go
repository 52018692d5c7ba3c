package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// TestCancelledContextEveryEntryPoint pins the interruption contract
// across all analysis entry points: an already-cancelled context is not
// an error — each returns immediately with an empty partial result whose
// Interrupted flag is set.
func TestCancelledContextEveryEntryPoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := gen.SBN(2)
	sc, _ := memmodel.ByName("sc")

	cases := []struct {
		name string
		run  func() (interrupted bool, work int, err error)
	}{
		{"Explore", func() (bool, int, error) {
			res, err := Explore(p, Options{Model: sc, Context: ctx})
			return res.Interrupted, res.Executions, err
		}},
		{"Estimate", func() (bool, int, error) {
			// Samples records the requested probe count by contract;
			// CompletedProbes is what measures work actually done.
			est, err := Estimate(p, Options{Model: sc, Context: ctx}, 50, 1)
			return est.Interrupted, est.CompletedProbes, err
		}},
		{"CheckRobustness", func() (bool, int, error) {
			rep, err := CheckRobustness(p, sc, Options{Context: ctx})
			return rep.Interrupted, rep.Executions, err
		}},
		{"CheckRaces", func() (bool, int, error) {
			rep, err := CheckRaces(p, Options{Context: ctx})
			return rep.Interrupted, rep.Executions, err
		}},
		{"CheckLiveness", func() (bool, int, error) {
			rep, err := CheckLiveness(p, sc, Options{Context: ctx})
			return rep.Interrupted, rep.BlockedExecutions, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			interrupted, work, err := tc.run()
			if err != nil {
				t.Fatalf("cancellation must not be an error: %v", err)
			}
			if !interrupted {
				t.Error("Interrupted flag not set")
			}
			if work != 0 {
				t.Errorf("pre-cancelled run did work: %d", work)
			}
		})
	}
}

// TestDeadlineStopsExploration checks a deadline that fires mid-run:
// inc(4,3) has far too many executions for 10ms, so the result must come
// back interrupted and partial, without error, under both sequential and
// parallel exploration.
func TestDeadlineStopsExploration(t *testing.T) {
	sc, _ := memmodel.ByName("sc")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		res, err := Explore(gen.IncN(4, 3), Options{Model: sc, Context: ctx, Workers: workers})
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Interrupted {
			t.Errorf("workers=%d: deadline did not interrupt", workers)
		}
		if res.Exhaustive() {
			t.Errorf("workers=%d: interrupted result claims exhaustiveness", workers)
		}
	}
}

// TestBoundedAndInterruptedPartialityFlags pins the three-way partiality
// contract shared by all entry points: MaxExecutions sets Truncated (not
// Interrupted), cancellation sets Interrupted, and an unbounded completed
// run is Exhaustive.
func TestBoundedAndInterruptedPartialityFlags(t *testing.T) {
	sc, _ := memmodel.ByName("sc")
	p := gen.SBN(2)

	res, err := Explore(p, Options{Model: sc, MaxExecutions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Interrupted || res.Exhaustive() {
		t.Errorf("MaxExecutions=1: Truncated=%v Interrupted=%v Exhaustive=%v, want true/false/false",
			res.Truncated, res.Interrupted, res.Exhaustive())
	}
	if res.Executions != 1 {
		t.Errorf("MaxExecutions=1 explored %d executions", res.Executions)
	}

	res, err = Explore(p, Options{Model: sc})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhaustive() || res.Truncated || res.Interrupted {
		t.Errorf("unbounded run: Truncated=%v Interrupted=%v, want exhaustive", res.Truncated, res.Interrupted)
	}

	// The analyses inherit MaxExecutions through their Options parameter.
	rep, err := CheckRobustness(p, sc, Options{MaxExecutions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Error("CheckRobustness must surface MaxExecutions truncation")
	}
	race, err := CheckRaces(p, Options{MaxExecutions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !race.Truncated {
		t.Error("CheckRaces must surface MaxExecutions truncation")
	}
}

// The tests below pin the checkpoint contract for every way a run can
// stop early: each interruption and truncation path must hand back a
// checkpoint that round-trips byte-identically through encode→decode and
// resumes to the same place the uninterrupted run reaches.

// TestCheckpointOnPreCancelledContext: a checkpointable run under an
// already-cancelled context returns the frontier it never got to visit —
// for a fresh run, the root — and resuming it is equivalent to just
// running.
func TestCheckpointOnPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := gen.SBN(2)
	sc, _ := memmodel.ByName("sc")
	base := Options{Model: sc, CollectKeys: true, DedupSafeguard: true}

	opts := base
	opts.Context = ctx
	opts.Checkpoint = &CheckpointOptions{}
	res, err := Explore(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.Executions != 0 {
		t.Fatalf("pre-cancelled: Interrupted=%v Executions=%d", res.Interrupted, res.Executions)
	}
	if res.Checkpoint == nil {
		t.Fatal("pre-cancelled checkpointable run returned no checkpoint")
	}
	cp := encodeDecode(t, res.Checkpoint)

	resumeOpts := base
	resumeOpts.ResumeFrom = cp
	resumed, err := Explore(p, resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	straight, err := Explore(p, base)
	if err != nil {
		t.Fatal(err)
	}
	assertSameExploration(t, "resume after pre-cancelled start", straight, resumed, true)
}

// TestCheckpointOnMidRunCancel: cancelling from inside OnExecution — a
// deterministic trigger point, though the watcher lands the pause
// asynchronously — yields a resumable checkpoint; chaining resumes until
// completion recovers the full exploration.
func TestCheckpointOnMidRunCancel(t *testing.T) {
	p := gen.IncN(3, 3)
	sc, _ := memmodel.ByName("sc")
	base := Options{Model: sc, CollectKeys: true, DedupSafeguard: true}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	execs := 0
	opts := base
	opts.Context = ctx
	opts.Checkpoint = &CheckpointOptions{}
	opts.OnExecution = func(*eg.Graph, prog.FinalState) {
		if execs++; execs == 3 {
			cancel()
		}
	}
	res, err := Explore(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Skip("exploration outran the cancellation watcher")
	}
	if res.Checkpoint == nil {
		t.Fatal("interrupted checkpointable run returned no checkpoint")
	}
	cp := encodeDecode(t, res.Checkpoint)

	resumed := resumeToCompletion(t, p, base, cp)
	straight, err := Explore(p, base)
	if err != nil {
		t.Fatal(err)
	}
	// The cut lands wherever the watcher goroutine caught the run, so the
	// arrival order (and with it the effort counters) may shift; the
	// semantic outcome may not.
	assertSameExploration(t, "resume after mid-run cancel", straight, resumed, false)
}

// resumeToCompletion chains ResumeFrom legs (no fault injection) until a
// leg finishes, round-tripping every checkpoint on the way.
func resumeToCompletion(t *testing.T, p *prog.Program, base Options, cp *Checkpoint) *Result {
	t.Helper()
	for leg := 0; ; leg++ {
		if leg > 1000 {
			t.Fatal("resume chain did not terminate")
		}
		opts := base
		opts.ResumeFrom = cp
		res, err := Explore(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Interrupted {
			return res
		}
		if res.Checkpoint == nil {
			t.Fatal("interrupted resume leg returned no checkpoint")
		}
		cp = encodeDecode(t, res.Checkpoint)
	}
}

// TestCheckpointOnMaxExecutions: hitting the execution cap in a
// checkpointable run truncates with a final checkpoint; resuming under
// the same bound returns the same truncated verdict without wandering
// past states the straight run never reached.
func TestCheckpointOnMaxExecutions(t *testing.T) {
	p := gen.SBN(3)
	sc, _ := memmodel.ByName("sc")
	base := Options{Model: sc, CollectKeys: true, DedupSafeguard: true, MaxExecutions: 3}

	opts := base
	opts.Checkpoint = &CheckpointOptions{}
	res, err := Explore(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.TruncatedReason != TruncMaxExecutions {
		t.Fatalf("Truncated=%v reason=%q, want max-executions", res.Truncated, res.TruncatedReason)
	}
	if res.Executions != 3 {
		t.Fatalf("explored %d executions, want 3", res.Executions)
	}
	if res.Checkpoint == nil {
		t.Fatal("truncated checkpointable run returned no checkpoint")
	}
	cp := encodeDecode(t, res.Checkpoint)

	resumeOpts := base
	resumeOpts.ResumeFrom = cp
	resumed, err := Explore(p, resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Truncated || resumed.TruncatedReason != TruncMaxExecutions {
		t.Errorf("resumed at cap: Truncated=%v reason=%q", resumed.Truncated, resumed.TruncatedReason)
	}
	if resumed.Executions != 3 || resumed.States != res.States {
		t.Errorf("resume at the cap must not explore further: execs %d→%d states %d→%d",
			res.Executions, resumed.Executions, res.States, resumed.States)
	}
	if resumed.Checkpoint == nil {
		t.Error("at-cap resume must hand the checkpoint back for a roomier retry")
	}
}

// TestCheckpointOnMaxEvents: the per-branch event bound truncates
// sideways (pruning branches, not the whole run); a kill/resume chain
// under the same bound reproduces the straight bounded run exactly,
// sticky Truncated flag included.
func TestCheckpointOnMaxEvents(t *testing.T) {
	p := gen.SBN(2)
	base := Options{MaxEvents: 3}
	straight := explore(t, p, "sc", withKeys(base))
	if !straight.Truncated || straight.TruncatedReason != TruncMaxEvents {
		t.Fatalf("MaxEvents=3 on SB(2) should truncate, got %v/%q",
			straight.Truncated, straight.TruncatedReason)
	}
	for _, k := range killPoints(straight.States+straight.MemoHits, true) {
		resumed, _ := runChained(t, p, "sc", base, k)
		assertSameExploration(t, fmt.Sprintf("max-events k=%d", k), straight, resumed, true)
	}
}

// TestCheckpointOnMemoryBudget: an unmeetable budget parks the whole
// in-flight frontier in the checkpoint before anything is dropped, so
// a resume without the budget (it is transient, not part of the
// checkpoint signature) completes the exploration — and, since nothing
// was lost, the result is exhaustive, not truncated.
func TestCheckpointOnMemoryBudget(t *testing.T) {
	p := gen.SBN(2)
	sc, _ := memmodel.ByName("sc")
	base := Options{Model: sc, CollectKeys: true, DedupSafeguard: true}

	opts := base
	opts.MemoryBudget = 1 // any live heap exceeds one byte
	opts.Checkpoint = &CheckpointOptions{}
	res, err := Explore(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.TruncatedReason != TruncMemoryBudget {
		t.Fatalf("Truncated=%v reason=%q, want memory-budget", res.Truncated, res.TruncatedReason)
	}
	if res.Checkpoint == nil {
		t.Fatal("budget-truncated checkpointable run returned no checkpoint")
	}
	cp := encodeDecode(t, res.Checkpoint)

	resumeOpts := base
	resumeOpts.ResumeFrom = cp
	resumed, err := Explore(p, resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Truncated {
		t.Errorf("resume without the budget still marked truncated (%q)", resumed.TruncatedReason)
	}
	straight, err := Explore(p, base)
	if err != nil {
		t.Fatal(err)
	}
	assertSameExploration(t, "resume after memory-budget truncation", straight, resumed, true)
}

// TestNoCheckpointOnHardStop: StopOnError is a hard stop — the in-flight
// frontier is abandoned mid-enumeration, so no sound checkpoint exists
// and none is produced. Without StopOnError the assertion failures ride
// inside the checkpoints (witness graphs and all) across a kill/resume
// chain.
func TestNoCheckpointOnHardStop(t *testing.T) {
	b := prog.NewBuilder("always-fails")
	x := b.Loc("x")
	t0 := b.Thread()
	r := t0.Load(x)
	t0.Assert(prog.Ne(prog.R(r), prog.R(r)), "always false")
	t1 := b.Thread()
	t1.Store(x, prog.Const(1))
	p := b.MustBuild()
	sc, _ := memmodel.ByName("sc")

	res, err := Explore(p, Options{Model: sc, StopOnError: true, Checkpoint: &CheckpointOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) == 0 {
		t.Fatal("expected an assertion failure")
	}
	if res.Checkpoint != nil {
		t.Error("hard stop produced a checkpoint from an incomplete frontier")
	}

	// Errors survive checkpointing: chain kills without StopOnError and
	// check the final error set (including decodable witnesses) matches.
	straight := explore(t, p, "sc", Options{CollectKeys: true})
	if len(straight.Errors) == 0 {
		t.Fatal("expected assertion failures in the full run")
	}
	resumed, _ := runChained(t, p, "sc", Options{}, 2)
	assertSameExploration(t, "errors across resume chain", straight, resumed, true)
	for i, er := range resumed.Errors {
		if er.Graph == nil {
			t.Errorf("resumed error %d lost its witness graph", i)
		} else if err := er.Graph.CheckWellFormed(); err != nil {
			t.Errorf("resumed error %d witness ill-formed: %v", i, err)
		}
		if er.Msg == "" {
			t.Errorf("resumed error %d lost its message", i)
		}
	}
}

// TestCancelDuringCheckpointSinkStopsRun: a cancellation that lands while
// a periodic checkpoint sink runs must end the run at that pause, not be
// dropped when the pause loop resumes. The sink cancels and then waits, so
// the watcher has requested the end before the sink returns; the run must
// stop with the executions of the first checkpoint and hand back a final
// checkpoint that resumes to the straight run's totals.
func TestCancelDuringCheckpointSinkStopsRun(t *testing.T) {
	p := gen.SBN(10)
	tso, _ := memmodel.ByName("tso")
	straight, err := Explore(p, Options{Model: tso})
	if err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{100, 600} {
		ctx, cancel := context.WithCancel(context.Background())
		sinks := 0
		res, err := Explore(p, Options{Model: tso, Context: ctx, Checkpoint: &CheckpointOptions{
			EveryExecs: every,
			Sink: func(*Checkpoint) {
				if sinks++; sinks == 1 {
					cancel()
					// The watcher goroutine is not observable from here; it
					// gets the sleeping sink's processor at once.
					time.Sleep(100 * time.Millisecond)
				}
			},
		}})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Interrupted || res.Checkpoint == nil {
			t.Fatalf("every=%d: Interrupted=%v checkpoint=%v, want an interrupted run with a checkpoint",
				every, res.Interrupted, res.Checkpoint != nil)
		}
		if res.Executions != every || sinks != 1 {
			t.Errorf("every=%d: run went on to %d executions and %d sinks after the cancellation, want %d and 1",
				every, res.Executions, sinks, every)
		}
		resumed := resumeToCompletion(t, p, Options{Model: tso}, encodeDecode(t, res.Checkpoint))
		if resumed.Executions != straight.Executions || resumed.States != straight.States {
			t.Errorf("every=%d: resumed totals %d/%d, straight run %d/%d", every,
				resumed.Executions, resumed.States, straight.Executions, straight.States)
		}
	}
}
