// Package core implements the HMC exploration algorithm: optimal stateless
// model checking of concurrent programs directly against (hardware) memory
// models, on execution graphs.
//
// The algorithm extends the GenMC family to models that permit (po ∪ rf)
// cycles, which is the paper's contribution. Exploration is a DFS over
// execution graphs:
//
//   - a deterministic scheduler picks the first thread whose replay
//     (internal/interp) produces a new event;
//   - a read branches over every consistent rf choice among the writes
//     already present;
//   - a write branches over every consistent coherence position, and — when
//     placed coherence-maximally — additionally *backward-revisits* existing
//     same-location reads: the graph is restricted to the *dependency
//     prefix* of the write and the read, the read is re-bound to the new
//     write, and exploration restarts from the restricted graph.
//
// The dependency prefix is where hardware models differ from RC11-style
// models: events po-after the revisited read that do not syntactically
// depend on it are *kept*, which is what makes load-buffering executions
// (rf into the po-past) reachable. Two shortcuts reject doomed revisits
// early: a rebind that would close a (po-loc ∪ rf) cycle through the read,
// out of edges repair cannot rewrite, is dropped before any graph is built
// (coherence, shared by every model, forbids it), and a failed revisit with
// no kept control or address dependency skips the taint-pruning second
// phase, which could delete nothing. Optimality — each consistent execution
// explored exactly once — comes from the exploration-state memo in visit:
// graphs are memoized on their canonical key, so a state rebuilt by a
// second revisit choreography is pruned rather than re-explored. There is
// no maximality side condition on revisits; the duplicate-free property
// tests (Stats.Duplicates = 0 under DedupSafeguard) pin the guarantee.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hmc/internal/analyze"
	"hmc/internal/eg"
	"hmc/internal/interp"
	"hmc/internal/memmodel"
	"hmc/internal/obs"
	"hmc/internal/prog"
)

// memCheckInterval paces the MemoryBudget ReadMemStats probe: once per
// this many visited states (ReadMemStats stops the world, so the hot path
// must not pay for it per branch).
const memCheckInterval = 256

// Options configures an exploration.
type Options struct {
	// Model is the memory model to check against (required).
	//hmc:identity(Model) — checked through the dedicated Checkpoint.Model field on resume
	Model memmodel.Model
	// Context, when non-nil, makes the exploration cancellable: it is
	// polled at every branch point (forward branches, revisits, and the
	// parallel worker pool), so cancellation or a deadline stops the run
	// mid-exploration. An interrupted run is not an error — Explore
	// returns the partial Result accumulated so far with Interrupted set,
	// mirroring how MaxExecutions sets Truncated.
	//hmc:transient(cancellation is a property of the run, not of the saved state)
	Context context.Context
	// MaxSteps bounds each thread replay (≤0: interp.DefaultMaxSteps).
	MaxSteps int
	// MaxExecutions aborts exploration after this many complete executions
	// (0 = unlimited).
	MaxExecutions int
	// MaxEvents caps the size of any single execution graph, counted as
	// Graph.NumEvents (0 = unlimited). A branch whose graph exceeds the
	// cap is pruned and the Result marked Truncated with reason
	// TruncMaxEvents; exploration of smaller graphs continues, so the
	// partial counts cover every execution within the budget. This is the
	// defense against state explosion in a single oversized submission.
	MaxEvents int
	// MemoryBudget is a soft process-heap ceiling in bytes (0 =
	// unlimited), checked periodically at branch points against
	// runtime.ReadMemStats (HeapAlloc). Exceeding it stops the whole
	// exploration and returns the partial Result with Truncated set and
	// reason TruncMemoryBudget — graceful degradation instead of an OOM
	// kill. The check is shared-process-wide, so under concurrent
	// explorations (a service) a truncation may be caused by a neighbor's
	// allocation burst: callers should treat it as transient.
	//hmc:transient(a property of the machine and moment; a truncated run resumes under the new process's budget)
	MemoryBudget int64
	// StopOnError aborts exploration at the first assertion failure.
	StopOnError bool
	// DedupSafeguard tracks complete-execution keys and suppresses
	// duplicates, counting them in Stats.Duplicates. The algorithm is
	// optimal, so this is a diagnostic: the test suite asserts the count
	// stays zero. It costs memory proportional to the execution count.
	DedupSafeguard bool
	// PorfOnlyRevisits is the T5 ablation: restrict backward revisits to
	// porf-prefix-closed deletions as RC11-tuned explorers do (every event
	// po-after the revisited read is deleted; revisits that would need a
	// po-later event in the write's prefix are skipped). Under hardware
	// models this misses load-buffering executions.
	PorfOnlyRevisits bool
	// OnExecution, when non-nil, is invoked for every complete consistent
	// execution with its graph and final state.
	//hmc:transient(callbacks observe the run; they never change what is explored)
	OnExecution func(g *eg.Graph, fs prog.FinalState)
	// OnBlocked, when non-nil, is invoked for every maximal blocked
	// execution (some thread's assume failed and no thread can add an
	// event). Like OnExecution, invocations are serialized.
	//hmc:transient(callbacks observe the run; they never change what is explored)
	OnBlocked func(g *eg.Graph)
	// CollectKeys records each complete execution's canonical key in
	// Result.Keys (tests and cross-validation).
	CollectKeys bool
	// OnDuplicate, when non-nil (and DedupSafeguard set), receives each
	// suppressed duplicate execution — a debugging hook for the
	// optimality tests.
	//hmc:transient(callbacks observe the run; they never change what is explored)
	OnDuplicate func(g *eg.Graph)
	// Workers sets the number of concurrent exploration workers (≤1:
	// sequential). Exploration subtrees are independent — graphs are
	// cloned per branch and the state memo is synchronized — so branches
	// fork onto free workers and degrade to inline recursion when all
	// slots are busy; no task ever waits. Results are identical to the
	// sequential run except for ordering: Keys, Errors and the OnExecution
	// callback sequence follow completion order, not DFS order (the
	// callbacks themselves are serialized).
	//hmc:transient(parallelism only reorders the same work; legs of a resume chain may differ)
	Workers int
	// StaticAnalysis enables static pruning: before exploration the
	// program is run through internal/analyze, and its location footprint
	// is used to skip branching work that coherence would reject anyway —
	// non-co-maximal rf candidates and backward revisits on thread-local
	// locations, non-co-maximal coherence placements on single-writer
	// locations, and revisit scans after statically-dead stores. The
	// pruning is count-preserving: Executions, ExistsCount, Blocked and
	// Errors are identical to an unpruned run (cross-validated against
	// the axiomatic oracle in the test suite); only the Stats.StaticPruned*
	// counters and the work they measure change.
	StaticAnalysis bool
	// CheckDeps turns the static analysis into a sanitizer on the
	// interpreter: at every event-producing action the dynamic taint sets
	// (addr/data/ctrl) are checked to be a subset of the static
	// over-approximation. Violations — which indicate a bug in either the
	// interpreter's taint tracking or the analyzer — are counted in
	// Stats.DepViolations and sampled in Result.DepViolationDetails;
	// exploration continues.
	CheckDeps bool
	// Symmetry enables symmetry reduction: states (and executions) equal
	// up to a permutation of identical-code threads collapse to one
	// canonical representative, so Executions counts orbits rather than
	// raw executions. Replay commutes with renaming identical threads,
	// which makes the reduction sound; it is only meaningful when the
	// program's Exists/Assert conditions are themselves symmetric in
	// those threads (an n-thread counter, contending CASes, …). The
	// canonical key costs one extra Key computation per group permutation
	// per state, so the win is the orbit collapse (up to n! for n
	// identical threads) minus that constant.
	Symmetry bool
	// Checkpoint, when non-nil, makes the run checkpointable: periodic
	// snapshots go to Checkpoint.Sink every Checkpoint.EveryExecs
	// completed executions, and any interruption or whole-run truncation
	// drains the in-flight work into a final snapshot on
	// Result.Checkpoint instead of discarding it (see checkpoint.go).
	// Checkpointing changes how the run *stops* — a cancelled context
	// drains instead of hard-stopping, so interruption latency grows by
	// one wave of branch construction — but never what it explores.
	// StopOnError and engine panics still stop hard and yield no
	// checkpoint.
	//hmc:transient(checkpoint cadence changes when the run stops, never what it explores)
	Checkpoint *CheckpointOptions
	// ResumeFrom continues a prior run from its checkpoint. The
	// checkpoint must match this program's fingerprint, the model, and
	// every semantic option (see optsSignature); a mismatch returns
	// ErrCheckpointMismatch. The resumed Result's counters include the
	// checkpointed work, so a straight run and any
	// interrupt/resume chain report identical totals.
	//hmc:transient(the checkpoint being resumed is the state itself, not part of its signature)
	ResumeFrom *Checkpoint
	// FailAfter, when positive, injects a deterministic fault: the run
	// behaves as if the process had been killed at its FailAfter-th
	// branch point — exploration drains into a final checkpoint on
	// Result.Checkpoint with Interrupted set. This is the
	// resume-equivalence test hook ("kill at every k-th branch point"
	// without wall-clock races); production kills exercise the same
	// drain path via Context cancellation.
	//hmc:transient(a deterministic kill injection: decides when the run stops, never what it explores)
	FailAfter int
	// Progress, when non-nil (with a Sink), delivers periodic
	// ProgressSnapshots of the running exploration: counters, rates,
	// frontier size and a sampled phase-timing breakdown (see
	// progress.go). Snapshots are taken at the same quiescent points the
	// checkpointer uses — between drain waves, workers paused — so they
	// are race-free and never change what is explored. Like Workers, this
	// is a transient knob: it is excluded from checkpoint signatures, and
	// interruption semantics are unchanged (a progress-only run still
	// hard-stops on cancellation).
	//hmc:transient(snapshots observe the run at quiescent points; they never change what is explored)
	Progress *ProgressOptions
	// Trace, when non-nil, streams structured exploration events —
	// waves, revisits, static prunes, snapshots — as JSON lines to the
	// tracer (see internal/obs). Tracing enables the same sampled phase
	// timers as Progress; a tracer write error is latched and reported by
	// Tracer.Err, never aborting the run.
	//hmc:transient(tracing observes the run; a straight and a traced run explore the same states)
	Trace *obs.Tracer
}

// ErrorReport describes one assertion failure, with the witness graph.
type ErrorReport struct {
	Thread int
	Msg    string
	Graph  *eg.Graph
}

func (e ErrorReport) String() string {
	return fmt.Sprintf("thread %d: %s\n%s", e.Thread, e.Msg, e.Graph)
}

// Stats aggregates exploration metrics; these are the numbers the paper's
// tables report (executions explored, blocked executions, revisits, …).
type Stats struct {
	Executions    int // complete consistent executions
	ExistsCount   int // executions satisfying the program's Exists clause
	Blocked       int // executions ending with a blocked thread
	Duplicates    int // duplicate executions suppressed (must stay 0)
	RevisitsTried int // backward revisit candidates considered
	RevisitsTaken int
	States        int // distinct exploration states visited
	MemoHits      int // states reached again and pruned by the memo
	// RevisitsRepairFail counts tried revisits rejected without being
	// taken: the rebind closes a coherence cycle, repair diverges or fails
	// to converge, or the repaired graph is inconsistent — each with no
	// phase-2 taint pruning left to cure it.
	RevisitsRepairFail int
	RevisitsPorfSkip   int // skipped by the PorfOnlyRevisits ablation
	ConsistencyChecks  int
	StuckReads         int // reads with no consistent rf option (must stay 0)
	MaxGraphEvents     int
	// Static-pruning counters (Options.StaticAnalysis): work skipped
	// because the location footprint proved it fruitless.
	StaticPrunedRf    int // non-co-maximal rf candidates skipped (thread-local locations)
	StaticPrunedCo    int // non-co-maximal coherence placements skipped (single-writer locations)
	StaticPrunedScans int // backward-revisit scans skipped (thread-local / never-read locations)
	// DepViolations counts dynamic dependency sets not covered by the
	// static ones (Options.CheckDeps; must stay 0).
	DepViolations int
	Errors        []ErrorReport
}

// Result is the outcome of Explore.
type Result struct {
	Stats
	Keys []string // canonical execution keys (when CollectKeys)
	// DepViolationDetails samples the first few CheckDeps failures in
	// human-readable form (the full count is Stats.DepViolations).
	DepViolationDetails []string
	Truncated           bool // a resource bound was hit (see TruncatedReason)
	// TruncatedReason states which bound truncated the run: one of
	// TruncMaxExecutions, TruncMaxEvents, TruncMemoryBudget (the first
	// bound hit wins). Empty when Truncated is false.
	TruncatedReason string
	// Interrupted reports that Options.Context was cancelled (or its
	// deadline expired) before the state space was exhausted: every count
	// in Stats is a partial lower bound, and the absence of an assertion
	// failure or weak outcome proves nothing.
	Interrupted bool
	// Checkpoint is the final resumable snapshot of an interrupted or
	// whole-run-truncated checkpointable run (Options.Checkpoint,
	// ResumeFrom or FailAfter): feed it to Options.ResumeFrom to continue
	// exactly where this run stopped. Nil for complete runs, for
	// non-checkpointable runs, and after a hard stop (StopOnError).
	Checkpoint *Checkpoint
}

// Exhaustive reports whether the result covers the full state space —
// neither truncated by MaxExecutions nor interrupted by the context.
// Only exhaustive results are definitive verdicts (and cacheable).
func (r *Result) Exhaustive() bool { return !r.Truncated && !r.Interrupted }

// Explore model-checks p under opts and returns the aggregated result.
// When opts.Context is cancelled mid-run the partial result is returned
// with Interrupted set (not an error). A panic anywhere in the engine —
// including in worker goroutines and user callbacks — is recovered and
// returned as an *EngineError carrying the panic value, stack, program
// identity and the stats at the point of failure; the process survives.
func Explore(p *prog.Program, opts Options) (*Result, error) {
	if opts.Model == nil {
		return nil, fmt.Errorf("core: Options.Model is required")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sh := &shared{res: &Result{}, memo: make(map[string]bool)}
	if opts.DedupSafeguard {
		sh.seen = make(map[string]bool)
	}
	if opts.Workers > 1 {
		sh.sem = make(chan struct{}, opts.Workers-1)
	}
	e := &explorer{p: p, opts: opts, sh: sh, static: analyzeIfNeeded(p, opts)}
	e.ckpt = opts.Checkpoint != nil || opts.ResumeFrom != nil || opts.FailAfter > 0
	e.initObs()
	if opts.Symmetry {
		e.perms = symmetryPerms(len(p.Threads), p.SymmetryGroups())
	}
	frontier := []*eg.Graph{eg.NewGraph(len(p.Threads), p.NumLocs)}
	if opts.ResumeFrom != nil {
		var err error
		if frontier, err = e.restore(opts.ResumeFrom); err != nil {
			return nil, err
		}
		// A checkpoint taken exactly at the MaxExecutions bound: the run
		// it describes already stopped there, so resuming under the same
		// bound returns the restored result as-is — continuing would
		// explore (and memoize) states the straight run never reached.
		if opts.MaxExecutions > 0 && sh.res.Executions >= opts.MaxExecutions {
			sh.res.Truncated = true
			if sh.res.TruncatedReason == "" {
				sh.res.TruncatedReason = TruncMaxExecutions
			}
			sh.res.Checkpoint = e.capture(frontier)
			e.emitProgress(len(frontier), true)
			if sh.engineErr != nil {
				return nil, sh.engineErr
			}
			return sh.res, nil
		}
	}
	if ctx := opts.Context; ctx != nil {
		// A watcher translates ctx cancellation into the flags the branch
		// loops already poll, so the hot path stays a single atomic load.
		// Under checkpointing the cancellation drains (in-flight work is
		// captured, not discarded); otherwise it hard-stops as before.
		// Checking synchronously first makes a pre-cancelled context
		// deterministic: zero work, the (restored) interrupted result.
		if ctx.Err() != nil {
			sh.res.Interrupted = true
			if e.ckpt {
				sh.res.Checkpoint = e.capture(frontier)
			}
			e.emitProgress(len(frontier), true)
			if sh.engineErr != nil {
				return nil, sh.engineErr
			}
			return sh.res, nil
		}
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-ctx.Done():
				sh.interrupted.Store(true)
				if e.ckpt {
					sh.drain.Store(true)
				} else {
					sh.stop.Store(true)
				}
			case <-done:
			}
		}()
	}
	// The wave loop: visit the frontier, wait for quiescence, and — when a
	// drain was requested — capture or continue with the drained pending
	// graphs as the next frontier. Runs with neither checkpointing nor
	// progress enabled never set the drain flag and take exactly one trip
	// (the pre-checkpoint behaviour).
	remaining := 0
	for {
		for _, g := range frontier {
			g := g
			e.guard(func() { e.visit(g) })
		}
		sh.wg.Wait()
		if sh.engineErr != nil {
			return nil, sh.engineErr
		}
		if !sh.drain.Load() {
			break // exhausted, or hard-stopped (no checkpoint either way)
		}
		pending := sh.takePending()
		e.wave++
		e.traceWave(len(pending))
		if sh.stop.Load() {
			// A hard stop (StopOnError, panic wind-down) raced the drain:
			// the pending set is incomplete, so no checkpoint is safe.
			break
		}
		if sh.interrupted.Load() || sh.stopAfterDrain.Load() {
			sh.res.Checkpoint = e.capture(pending)
			remaining = len(pending)
			break
		}
		// Periodic snapshot (Checkpoint.EveryExecs): emit and continue.
		if opts.Checkpoint != nil && opts.Checkpoint.Sink != nil {
			cp := e.capture(pending)
			e.guard(func() { opts.Checkpoint.Sink(cp) })
			if sh.engineErr != nil {
				return nil, sh.engineErr
			}
		}
		// Periodic progress snapshot: the drain brought every worker to
		// this quiescent point, so the counters read race-free.
		if sh.progressReq.CompareAndSwap(true, false) {
			e.emitProgress(len(pending), false)
			if sh.engineErr != nil {
				return nil, sh.engineErr
			}
		}
		sh.drain.Store(false)
		frontier = pending
		if len(frontier) == 0 {
			break
		}
	}
	sh.res.Interrupted = sh.interrupted.Load()
	// The final snapshot: counters now equal the Result's. Delivered for
	// every run outcome short of an engine error, so a sink always
	// observes the end of the run.
	e.emitProgress(remaining, true)
	if sh.engineErr != nil {
		return nil, sh.engineErr
	}
	return sh.res, nil
}

type explorer struct {
	p     *prog.Program
	opts  Options
	sh    *shared
	perms [][]int // non-identity symmetry permutations (Symmetry)
	// static is the program's static-analysis result, computed once per
	// run when Options.StaticAnalysis or Options.CheckDeps is set.
	static *analyze.Result
	// sink, when non-nil, captures the graphs visit would explore instead
	// of recursing — the estimator's one-step successor enumeration. Only
	// set by successors(), never during real exploration.
	sink *[]*eg.Graph
	// ckpt marks a checkpointable run (Options.Checkpoint, ResumeFrom or
	// FailAfter): interruptions and whole-run truncations drain instead
	// of hard-stopping, so the in-flight frontier can be captured.
	ckpt bool
	// Observability (progress.go): prog and tracer are nil when disabled;
	// the phase timers are non-nil exactly when either is on. wave counts
	// completed drain waves and is touched only on the Explore goroutine.
	prog                        *progressState
	tracer                      *obs.Tracer
	tInterp, tConsist, tRevisit *obs.PhaseTimer
	wave                        int
}

// key returns g's canonical state key: its semantic key, minimized over
// the symmetry permutations when Symmetry is enabled.
func (e *explorer) key(g *eg.Graph) string {
	key := g.Key()
	for _, perm := range e.perms {
		if k := g.RenameThreads(perm).Key(); k < key {
			key = k
		}
	}
	return key
}

// shared is the exploration state common to all workers. The mutex guards
// the result, the state memo and the dedup table; the stop flag is atomic
// so branch loops can poll it without locking. Exploration subtrees only
// read the graph they were handed (strict replay never mutates) and clone
// before extending, so the graph itself needs no synchronization.
type shared struct {
	mu          sync.Mutex
	res         *Result
	seen        map[string]bool // complete-execution keys (DedupSafeguard)
	memo        map[string]bool // semantic exploration-state keys
	engineErr   *EngineError    // first recovered panic (guarded by mu)
	stop        atomic.Bool
	interrupted atomic.Bool   // stop/drain was caused by Options.Context (or FailAfter)
	visits      atomic.Int64  // visit counter paces the MemoryBudget check
	sem         chan struct{} // fork slots (nil: sequential)
	wg          sync.WaitGroup

	// Drain machinery (checkpointable runs only; see checkpoint.go).
	// While drain is set, visit records incoming graphs in pending
	// instead of recursing — the branch loops above keep constructing and
	// checking children, so every unit of work lands exactly once on one
	// side of the checkpoint cut. stopAfterDrain marks a drain that ends
	// the run (whole-run truncation) rather than pausing it (periodic
	// snapshot); faults counts branch points for Options.FailAfter.
	drain          atomic.Bool
	stopAfterDrain atomic.Bool
	faults         atomic.Int64
	pending        []*eg.Graph // guarded by mu
	// progressReq marks a drain requested (also) for a progress snapshot:
	// the wave loop emits one at the next quiescent point and clears it.
	progressReq atomic.Bool
}

// stopped reports whether exploration has been aborted.
func (e *explorer) stopped() bool { return e.sh.stop.Load() }

// recordPending saves a graph whose visit was deferred by a drain.
func (e *explorer) recordPending(g *eg.Graph) {
	e.sh.mu.Lock()
	e.sh.pending = append(e.sh.pending, g)
	e.sh.mu.Unlock()
}

// takePending removes and returns the drained frontier. Called between
// waves (workers quiescent).
func (sh *shared) takePending() []*eg.Graph {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p := sh.pending
	sh.pending = nil
	return p
}

// fork runs task on a free worker when one exists, inline otherwise.
// Tasks never block waiting for a slot, so at most Workers goroutines run,
// exhaustion degrades gracefully to sequential recursion, and a parent
// waiting for its forked children (stepRead's stuck-read accounting) can
// never deadlock: every child it spawned either holds a slot and runs, or
// ran inline on the parent itself.
func (e *explorer) fork(task func()) {
	if e.sh.sem != nil {
		select {
		case e.sh.sem <- struct{}{}:
			e.sh.wg.Add(1)
			go func() {
				defer func() {
					<-e.sh.sem
					e.sh.wg.Done()
				}()
				// The guard keeps a panic in this subtree from killing
				// the process: it is recorded as the run's EngineError
				// and the other workers wind down via the stop flag.
				e.guard(task)
			}()
			return
		default:
		}
	}
	task()
}

// visit explores all extensions of g. Exploration states are memoized on
// their semantic key (per-thread events with values, rf and co): replay is
// deterministic, so two graphs with equal keys have identical futures, and
// each state — in particular each complete execution — is explored exactly
// once. The memo is also what guarantees termination: the state space of a
// bounded program is finite, while revisit chains could otherwise rebuild
// semantically identical graphs forever.
func (e *explorer) visit(g *eg.Graph) {
	if e.sink != nil {
		*e.sink = append(*e.sink, g)
		return
	}
	if e.stopped() {
		return
	}
	if e.sh.drain.Load() {
		// A checkpoint is being taken: defer this subtree to the pending
		// frontier instead of recursing. The construction and consistency
		// check that produced g already ran (and were counted) in the
		// caller, and visiting g on resume re-runs none of them — each
		// unit of work happens exactly once across the cut.
		e.recordPending(g)
		return
	}
	if n := e.opts.FailAfter; n > 0 && e.sh.faults.Add(1) == int64(n) {
		// Deterministic fault injection: "the process dies here". The
		// graph in hand is not lost — it heads the pending frontier.
		e.sh.interrupted.Store(true)
		e.sh.drain.Store(true)
		e.recordPending(g)
		return
	}
	if e.opts.MaxEvents > 0 && g.NumEvents() > e.opts.MaxEvents {
		// Prune this oversized branch only: smaller graphs elsewhere in
		// the space are still explored, so the partial result covers
		// every execution within the event budget.
		e.truncate(TruncMaxEvents, false)
		return
	}
	if e.opts.MemoryBudget > 0 {
		// ReadMemStats stops the world, so pace it: the first visit (a
		// pre-exceeded budget fails fast and deterministically) and then
		// every memCheckInterval states.
		if n := e.sh.visits.Add(1); n == 1 || n%memCheckInterval == 0 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > uint64(e.opts.MemoryBudget) {
				if e.ckpt {
					// Under checkpointing the truncation drains: this
					// graph and the rest of the in-flight frontier are
					// captured, so a later run under a roomier budget
					// picks up exactly here.
					e.truncateDrain(TruncMemoryBudget)
					e.recordPending(g)
				} else {
					e.truncate(TruncMemoryBudget, true)
				}
				return
			}
		}
	}
	key := e.key(g)
	e.sh.mu.Lock()
	if e.sh.memo[key] {
		e.sh.res.MemoHits++
		e.sh.mu.Unlock()
		return
	}
	e.sh.memo[key] = true
	e.sh.res.States++
	if n := g.NumEvents(); n > e.sh.res.MaxGraphEvents {
		e.sh.res.MaxGraphEvents = n
	}
	e.sh.mu.Unlock()
	blocked := false
	for t := range e.p.Threads {
		ts := e.tInterp.Start()
		a := interp.Next(e.p, g, t, e.opts.MaxSteps)
		e.tInterp.Stop(ts)
		switch a.Kind {
		case interp.ActDone:
			continue
		case interp.ActBlocked:
			blocked = true
			continue
		case interp.ActError:
			witness := g.Clone() // outside the lock: cloning can panic
			e.sh.mu.Lock()
			e.sh.res.Errors = append(e.sh.res.Errors, ErrorReport{Thread: t, Msg: a.Msg, Graph: witness})
			e.sh.mu.Unlock()
			if e.opts.StopOnError {
				e.sh.stop.Store(true)
			}
			return
		default:
			if e.opts.CheckDeps && e.static != nil {
				e.verifyDeps(g, t, a)
			}
			e.step(g, t, a)
			return
		}
	}
	if blocked {
		// The deferred unlock matters for fault containment: a panicking
		// OnBlocked callback must release the lock on its way to the
		// guard, or the recovery path would deadlock on sh.mu.
		func() {
			e.sh.mu.Lock()
			defer e.sh.mu.Unlock()
			e.sh.res.Blocked++
			if e.opts.OnBlocked != nil {
				e.opts.OnBlocked(g)
			}
		}()
		return
	}
	e.complete(g)
}

// complete records a finished execution. The final state is computed
// outside the lock (pure graph read); everything else — dedup, counters,
// key collection and the user callback — runs under it, so OnExecution
// invocations are serialized even in parallel mode.
func (e *explorer) complete(g *eg.Graph) {
	key := e.key(g)
	var fs prog.FinalState
	if e.p.Exists != nil || e.opts.OnExecution != nil {
		fs = interp.FinalState(e.p, g, e.opts.MaxSteps)
	}
	e.sh.mu.Lock()
	defer e.sh.mu.Unlock()
	if e.opts.MaxExecutions > 0 && e.sh.res.Executions >= e.opts.MaxExecutions {
		return // a parallel worker completed while the cap was being hit
	}
	if e.sh.seen != nil {
		if e.sh.seen[key] {
			e.sh.res.Duplicates++
			if e.opts.OnDuplicate != nil {
				e.opts.OnDuplicate(g)
			}
			return
		}
		e.sh.seen[key] = true
	}
	e.sh.res.Executions++
	if e.p.Exists != nil && e.p.Exists(fs) {
		e.sh.res.ExistsCount++
	}
	if e.opts.CollectKeys {
		e.sh.res.Keys = append(e.sh.res.Keys, key)
	}
	if e.opts.OnExecution != nil {
		e.opts.OnExecution(g, fs)
	}
	if e.opts.MaxExecutions > 0 && e.sh.res.Executions >= e.opts.MaxExecutions {
		e.sh.res.Truncated = true
		if e.sh.res.TruncatedReason == "" {
			e.sh.res.TruncatedReason = TruncMaxExecutions
		}
		if e.ckpt {
			// Drain instead of hard-stopping so the already-constructed
			// frontier lands in the final checkpoint: a run resumed under
			// a higher bound continues instead of starting over.
			e.sh.stopAfterDrain.Store(true)
			e.sh.drain.Store(true)
		} else {
			e.sh.stop.Store(true)
		}
		return
	}
	if co := e.opts.Checkpoint; co != nil && co.Sink != nil && co.EveryExecs > 0 &&
		e.sh.res.Executions%co.EveryExecs == 0 {
		// Periodic snapshot: drain to a quiescent point; the wave loop in
		// Explore emits the checkpoint and resumes from the drained
		// frontier. The pause costs one wave of deferred recursion — the
		// T14 experiment measures the overhead against EveryExecs.
		e.sh.drain.Store(true)
	}
	if e.progressDueLocked() {
		// Progress snapshot due: same drain, same quiescent point; the
		// wave loop emits the snapshot and resumes (T15 bounds the
		// overhead at the default cadence).
		e.sh.progressReq.Store(true)
		e.sh.drain.Store(true)
	}
}

// consistent checks g under the model, counting (and phase-timing) the
// check.
func (e *explorer) consistent(g *eg.Graph) bool {
	e.sh.mu.Lock()
	e.sh.res.ConsistencyChecks++
	e.sh.mu.Unlock()
	ts := e.tConsist.Start()
	v := eg.GetView(g)
	ok := e.opts.Model.Consistent(v)
	eg.PutView(v)
	e.tConsist.Stop(ts)
	return ok
}

// count applies a Stats mutation under the shared lock.
func (e *explorer) count(f func(*Stats)) {
	e.sh.mu.Lock()
	f(&e.sh.res.Stats)
	e.sh.mu.Unlock()
}

// step handles thread t's next action on g.
func (e *explorer) step(g *eg.Graph, t int, a interp.Action) {
	id := eg.EvID{T: t, I: g.ThreadLen(t)}
	switch {
	case a.Kind == interp.ActFence:
		g2 := g.Clone()
		g2.Add(a.MakeEvent(id, 0))
		if e.consistent(g2) {
			e.visit(g2)
		}

	case a.Reads():
		e.stepRead(g, id, a)

	case a.Kind == interp.ActStore:
		e.stepWrite(g, id, a)

	default:
		panic("core: unhandled action " + a.Kind.String())
	}
}

// stepRead branches over the rf options of a read or RMW. Future writes
// reach this read via backward revisits later.
//
// A new *update* reading a write w that some existing update u already
// reads performs a forward chain steal: the new update slots in
// coherence-immediately after w and u is rebound to read from it (values
// downstream repaired). This is the GenMC treatment of RMW chains — every
// permutation of an atomic-update chain is reached forward, with no
// deletions — and it is why backward revisits never target updates with
// an update revisitor (that pair is exactly a steal).
func (e *explorer) stepRead(g *eg.Graph, id eg.EvID, a interp.Action) {
	ws := g.WritesTo(a.Loc) // coherence order, init first
	if len(ws) > 1 && e.pruneRF(a.Loc) {
		// Thread-local location: every write in ws shares this read's
		// thread and is po-before it, so coherence admits exactly the
		// co-maximal rf source (the last element); see staticprune.go.
		e.count(func(s *Stats) { s.StaticPrunedRf += len(ws) - 1 })
		e.tracePrune("rf", len(ws)-1)
		ws = ws[len(ws)-1:]
	}
	var anyConsistent atomic.Bool
	var wg sync.WaitGroup
	for _, w := range ws {
		if e.stopped() {
			break
		}
		ev := a.MakeEvent(id, g.ValueOf(w))
		g2 := g.Clone()
		g2.Add(ev)
		g2.SetRF(id, w)
		if ev.Kind == eg.KUpdate {
			g2.CoInsert(a.Loc, g2.CoIndex(a.Loc, w)+1, id)
			if u, ok := updateReading(g, a.Loc, w); ok {
				// Chain steal: u now reads the new update; its written
				// value (and anything downstream) needs repair. If the
				// rebind diverges structurally (u's thread branches on
				// the stolen value), fall back to a revisit-style rebind
				// of u, which deletes and re-derives the affected suffix.
				pre := g2.Clone()
				g2.SetRF(u, id)
				if !interp.RepairAll(e.p, g2, e.opts.MaxSteps) {
					e.revisit(pre, id, u)
					continue
				}
			}
		}
		wg.Add(1)
		e.fork(func() {
			defer wg.Done()
			if !e.consistent(g2) {
				return
			}
			anyConsistent.Store(true)
			e.visit(g2)
			if ev.Kind == eg.KUpdate {
				// The update's write part may backward-revisit plain
				// reads; computed per rf-branch so the kept prefix
				// includes this branch's rf source.
				e.maybeRevisitsFrom(g2, id, a.Loc)
			}
		})
	}
	wg.Wait()
	if !anyConsistent.Load() && !e.stopped() {
		// Extensibility says reading co-max must be consistent; a stuck
		// read indicates a model that violates the algorithm's assumptions.
		e.count(func(s *Stats) { s.StuckReads++ })
	}
}

// updateReading returns the update event that reads from w at loc, if any
// (at most one exists in an atomicity-consistent graph).
func updateReading(g *eg.Graph, loc eg.Loc, w eg.EvID) (eg.EvID, bool) {
	var found eg.EvID
	ok := false
	g.ForEach(func(ev eg.Event) {
		if ev.Kind == eg.KUpdate && ev.Loc == loc {
			if src, has := g.RF(ev.ID); has && src == w {
				found = ev.ID
				ok = true
			}
		}
	})
	return found, ok
}

// stepWrite branches over coherence positions; each consistent placement
// additionally performs backward revisits (per position, so the kept
// prefix reflects this branch's coherence binding).
func (e *explorer) stepWrite(g *eg.Graph, id eg.EvID, a interp.Action) {
	n := len(g.CoLoc(a.Loc))
	start := 0
	if n > 0 && e.pruneCo(a.Loc) {
		// Single-writer location: every existing write shares this
		// write's thread and is po-before it, so the only coherent
		// placement is co-maximal; see staticprune.go.
		e.count(func(s *Stats) { s.StaticPrunedCo += n })
		e.tracePrune("co", n)
		start = n
	}
	for pos := start; pos <= n; pos++ {
		if e.stopped() {
			return
		}
		ev := a.MakeEvent(id, 0)
		g2 := g.Clone()
		g2.Add(ev)
		g2.CoInsert(a.Loc, pos, id)
		e.fork(func() {
			if !e.consistent(g2) {
				return
			}
			e.visit(g2)
			e.maybeRevisitsFrom(g2, id, a.Loc)
		})
	}
}
