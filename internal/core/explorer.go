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
// Only some forward steps call the model. Every visited graph is
// consistent, and a *sink* — a fence, a read of the co-maximal write (or
// an update placed right after it, stealing no chain), a co-maximal
// write — gains no outgoing edge, so extending a consistent graph by one
// stays consistent (the extension contract on memmodel.Model). Such steps
// are admitted unchecked and counted in Stats.SinkExtensions; other rf
// and co candidates, chain steals and revisits keep the full check.
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
// no maximality side condition on revisits. Because complete runs only
// for a key visit has just admitted to the memo, Stats.Duplicates under
// DedupSafeguard is 0 by construction and cannot referee the guarantee;
// the referee is the equality of the explored execution set with the
// axiomatic enumerator's and the operational machines' (internal/axenum,
// internal/operational, internal/crossval).
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
	// duplicates, counting them in Stats.Duplicates. It costs memory
	// proportional to the execution count. While the state memo is on (as
	// it always is today) the count is 0 by construction: complete only
	// sees keys visit has just admitted. The safeguard becomes a live check
	// once exactly-once rests on a revisit condition instead of the memo
	// (ROADMAP item 3); until then the execution-set equality with
	// internal/axenum and internal/operational is the real referee.
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
	// completed executions (and only then — progress pauses never emit
	// one), and any interruption or whole-run truncation drains the
	// in-flight work into a final snapshot on Result.Checkpoint instead of
	// discarding it (see checkpoint.go). Checkpointing changes how the run
	// *stops* — a cancelled context drains instead of hard-stopping, so
	// interruption latency grows by one wave of branch construction — but
	// never what it explores. A cancellation that lands while a sink runs
	// ends the run at the next wave. StopOnError and engine panics still
	// stop hard and yield no checkpoint.
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
	// progress.go). A ticker on the run's watcher goroutine requests a
	// pause every Progress.Every; the snapshot is taken at the quiescent
	// point between drain waves, workers paused, so it is race-free and
	// never changes what is explored. A progress pause emits no
	// checkpoint. Like Workers, this is a transient knob: it is excluded
	// from checkpoint signatures, and interruption semantics are unchanged
	// (a progress-only run still hard-stops on cancellation).
	//hmc:transient(snapshots observe the run at quiescent points; they never change what is explored)
	Progress *ProgressOptions
	// Trace, when non-nil, streams structured exploration events —
	// waves, revisits, static prunes, snapshots — as JSON lines to the
	// tracer (see internal/obs). Tracing alone starts no phase timers:
	// only progress snapshots read them. A tracer write error is latched
	// and reported by Tracer.Err, never aborting the run.
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
	Duplicates    int // duplicate executions suppressed under DedupSafeguard (0 by construction while the memo is on)
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
	ConsistencyChecks  int // calls to Options.Model.Consistent
	// SinkExtensions counts forward extensions admitted without a model
	// check because the new event is a sink: a fence, a read (or an update
	// stealing no chain) of the co-maximal write, or a co-maximal write.
	SinkExtensions int
	// StuckReads counts reads with no consistent rf option. It is 0 by
	// construction: the co-maximal rf source is a sink extension, admitted
	// without a check. TestPropSinkExtensionsPassFullCheck is the referee
	// that every model agrees.
	StuckReads     int
	MaxGraphEvents int
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
	e := newExplorer(p, opts)
	sh := e.sh
	frontier := []*eg.Graph{eg.NewGraph(len(p.Threads), p.NumLocs)}
	if opts.ResumeFrom != nil {
		var err error
		if frontier, err = e.restore(opts.ResumeFrom); err != nil {
			return nil, err
		}
		// A checkpoint taken exactly at the MaxExecutions bound: the run
		// it describes already stopped there, so under the same bound the
		// first wave drains straight back into the checkpoint — continuing
		// would explore (and memoize) states the straight run never reached.
		if opts.MaxExecutions > 0 && sh.res.Executions >= opts.MaxExecutions {
			e.truncate(TruncMaxExecutions, true)
		}
	}
	if ctx := opts.Context; ctx != nil && ctx.Err() != nil {
		// Checked synchronously so a pre-cancelled context is
		// deterministic: the end request lands before the first branch
		// point, and the run does no work.
		sh.interrupt()
	}
	if opts.Context != nil || e.prog != nil {
		done := make(chan struct{})
		defer close(done)
		go e.watch(done)
	}
	// The wave loop: visit the frontier, wait for quiescence, and — when a
	// pause was requested — act on exactly the requested reasons, then
	// continue with the drained pending graphs as the next frontier. A run
	// that requests no pause takes exactly one trip.
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
		reasons := reason(sh.reasons.Swap(0))
		if reasons&reasonEnd != 0 {
			sh.res.Checkpoint = e.capture(pending)
			remaining = len(pending)
			break
		}
		if reasons&reasonCheckpoint != 0 {
			cp := e.capture(pending)
			e.guard(func() { opts.Checkpoint.Sink(cp) })
		}
		if reasons&reasonProgress != 0 {
			// The drain brought every worker to this quiescent point, so
			// the counters read race-free.
			e.emitProgress(len(pending), false)
		}
		if sh.engineErr != nil {
			return nil, sh.engineErr
		}
		// Resume, unless a request arrived while the sinks ran: clearing
		// the flag before reading the reasons means a request either is
		// seen here or raises the flag itself afterwards.
		sh.drain.Store(false)
		if sh.reasons.Load() != 0 {
			sh.drain.Store(true)
		}
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

// newExplorer sets up the explorer of one run of p under opts, with an
// empty result and memo.
func newExplorer(p *prog.Program, opts Options) *explorer {
	sh := &shared{res: &Result{}, memo: make(map[string]bool)}
	if opts.DedupSafeguard {
		sh.seen = make(map[string]bool)
	}
	if opts.Workers > 1 {
		sh.sem = make(chan struct{}, opts.Workers-1)
	}
	sh.ckpt = opts.Checkpoint != nil || opts.ResumeFrom != nil || opts.FailAfter > 0
	e := &explorer{p: p, opts: opts, sh: sh, static: analyzeIfNeeded(p, opts)}
	e.initObs()
	if opts.Symmetry {
		e.perms = symmetryPerms(len(p.Threads), p.SymmetryGroups())
	}
	return e
}

// watch is the run's one watcher goroutine: it turns the asynchronous
// pause sources — Options.Context and the progress clock — into requests,
// so the branch loops poll nothing but atomic flags. It returns once the
// context is done (the run is ending) or when done is closed.
func (e *explorer) watch(done <-chan struct{}) {
	var cancelled <-chan struct{}
	if ctx := e.opts.Context; ctx != nil {
		cancelled = ctx.Done()
	}
	var tick <-chan time.Time
	if e.prog != nil {
		t := time.NewTicker(e.prog.every)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-cancelled:
			e.sh.interrupt()
			return
		case <-tick:
			e.sh.request(reasonProgress)
		case <-done:
			return
		}
	}
}

type explorer struct {
	p     *prog.Program
	opts  Options
	sh    *shared
	perms [][]int // non-identity symmetry permutations (Symmetry)
	// static is the program's static-analysis result, computed once per
	// run when Options.StaticAnalysis or Options.CheckDeps is set.
	static *analyze.Result
	// Observability (progress.go): prog and tracer are nil when disabled;
	// the phase timers are non-nil exactly when either is on. wave counts
	// completed drain waves and is touched only on the Explore goroutine.
	prog                        *progressState
	tracer                      *obs.Tracer
	tInterp, tConsist, tRevisit *obs.PhaseTimer
	wave                        int
	// auditSink is a test seam: when non-nil it is called with every sink
	// extension admitted without a model check (see admit), so a test can
	// run the full check there. Explore never sets it.
	auditSink func(g *eg.Graph)
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
	interrupted atomic.Bool   // the end was requested by Options.Context (or FailAfter)
	visits      atomic.Int64  // visit counter paces the MemoryBudget check
	faults      atomic.Int64  // branch points counted for Options.FailAfter
	sem         chan struct{} // fork slots (nil: sequential)
	wg          sync.WaitGroup

	// Pause machinery (see request and checkpoint.go). While drain is
	// set, visit records incoming graphs in pending instead of recursing;
	// reasons accumulates what the pause is for until the wave loop takes
	// it. ckpt marks a checkpointable run (Options.Checkpoint, ResumeFrom
	// or FailAfter).
	drain   atomic.Bool
	reasons atomic.Uint32
	pending []*eg.Graph // guarded by mu
	ckpt    bool
}

// reason is a bit set of what a pause request asks the wave loop to do
// once the workers are quiescent.
type reason uint32

const (
	reasonEnd        reason = 1 << iota // end the run with a final checkpoint
	reasonCheckpoint                    // emit a periodic checkpoint, continue
	reasonProgress                      // emit a progress snapshot, continue
)

// request asks for a pause at the next quiescent point. Every source of a
// pause calls it: the watcher (Options.Context, the progress clock),
// FailAfter, MaxExecutions, MemoryBudget and Checkpoint.EveryExecs. An end
// request on a run that is not checkpointable sets the hard stop instead:
// nothing would be captured, and abandoning the in-flight branches keeps
// interruption immediate. Safe to call under mu (it takes no lock).
func (sh *shared) request(r reason) {
	if r&reasonEnd != 0 && !sh.ckpt {
		sh.stop.Store(true)
		return
	}
	for {
		old := sh.reasons.Load()
		if sh.reasons.CompareAndSwap(old, old|uint32(r)) {
			break
		}
	}
	sh.drain.Store(true)
}

// interrupt ends the run on behalf of Options.Context or FailAfter.
func (sh *shared) interrupt() {
	sh.interrupted.Store(true)
	sh.request(reasonEnd)
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
// Tasks never block waiting for a slot, so at most Workers goroutines run
// and exhaustion degrades gracefully to sequential recursion.
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
		// Deterministic fault injection: "the process dies here". FailAfter
		// makes the run checkpointable, so the end request drains and the
		// graph in hand is not lost — it heads the pending frontier.
		e.sh.interrupt()
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
				// Under checkpointing this graph and the rest of the
				// in-flight frontier are captured, so a later run under a
				// roomier budget picks up exactly here.
				e.truncate(TruncMemoryBudget, true)
				e.recordPending(g)
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
	e.complete(g, key)
}

// complete records a finished execution; key is g's canonical key, as
// visit computed it for the memo. The final state is computed outside the
// lock (pure graph read); everything else — dedup, counters, key
// collection and the user callback — runs under it, so OnExecution
// invocations are serialized even in parallel mode.
func (e *explorer) complete(g *eg.Graph, key string) {
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
		// Under checkpointing the frontier lands in the final checkpoint,
		// so a run resumed under a higher bound continues from here.
		e.sh.truncateLocked(TruncMaxExecutions)
		e.sh.request(reasonEnd)
		return
	}
	if co := e.opts.Checkpoint; co != nil && co.Sink != nil && co.EveryExecs > 0 &&
		e.sh.res.Executions%co.EveryExecs == 0 {
		// Periodic snapshot: the wave loop in Explore emits the checkpoint
		// at the next quiescent point and resumes from the drained
		// frontier. The pause costs one wave of deferred recursion — the
		// T14 experiment measures the overhead against EveryExecs.
		e.sh.request(reasonCheckpoint)
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

// admit decides whether a forward extension g2 of a visited graph is
// explored. Every visited graph is consistent, so when the new event is a
// sink — po-maximal, with no readers and no co or fr successor — no axiom
// of any model gains an edge out of it and g2 is consistent too (the
// extension contract on memmodel.Model): it is admitted without a model
// check and counted in SinkExtensions. Any other extension must pass the
// check.
func (e *explorer) admit(g2 *eg.Graph, sink bool) bool {
	if !sink {
		return e.consistent(g2)
	}
	e.count(func(s *Stats) { s.SinkExtensions++ })
	if e.auditSink != nil {
		e.auditSink(g2)
	}
	return true
}

// count applies a Stats mutation under the shared lock.
func (e *explorer) count(f func(*Stats)) {
	e.sh.mu.Lock()
	f(&e.sh.res.Stats)
	e.sh.mu.Unlock()
}

// step handles thread t's next action on g. A fence is always a sink
// extension (see admit): it orders events around it, and nothing follows
// it in its thread.
func (e *explorer) step(g *eg.Graph, t int, a interp.Action) {
	id := eg.EvID{T: t, I: g.ThreadLen(t)}
	switch {
	case a.Kind == interp.ActFence:
		g2 := g.Clone()
		g2.Add(a.MakeEvent(id, 0))
		e.admit(g2, true)
		e.visit(g2)

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
//
// Reading the co-maximal write (the last of ws) without a chain steal is a
// sink extension: the read has no fr successor, and an update placed
// right after that write is co-maximal itself. It is admitted without a
// model check (see admit), so every read has at least one rf option and
// Stats.StuckReads is 0 by construction. Every other candidate is checked.
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
	for i, w := range ws {
		if e.stopped() {
			return
		}
		ev := a.MakeEvent(id, g.ValueOf(w))
		g2 := g.Clone()
		g2.Add(ev)
		g2.SetRF(id, w)
		sink := i == len(ws)-1
		if ev.Kind == eg.KUpdate {
			g2.CoInsert(a.Loc, g2.CoIndex(a.Loc, w)+1, id)
			if u, ok := updateReading(g, a.Loc, w); ok {
				// Chain steal: u now reads the new update; its written
				// value (and anything downstream) needs repair. If the
				// rebind diverges structurally (u's thread branches on
				// the stolen value), fall back to a revisit-style rebind
				// of u, which deletes and re-derives the affected suffix.
				sink = false
				pre := g2.Clone()
				g2.SetRF(u, id)
				if !interp.RepairAll(e.p, g2, u, e.opts.MaxSteps) {
					e.revisit(pre, id, u)
					continue
				}
			}
		}
		e.fork(func() {
			if !e.admit(g2, sink) {
				return
			}
			e.visit(g2)
			if ev.Kind == eg.KUpdate {
				// The update's write part may backward-revisit plain
				// reads; computed per rf-branch so the kept prefix
				// includes this branch's rf source.
				e.maybeRevisitsFrom(g2, id, a.Loc)
			}
		})
	}
}

// updateReading returns the update event that reads from w at loc, if any
// (at most one exists in an atomicity-consistent graph).
func updateReading(g *eg.Graph, loc eg.Loc, w eg.EvID) (eg.EvID, bool) {
	var found eg.EvID
	ok := false
	g.ForEach(func(ev *eg.Event) {
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
// prefix reflects this branch's coherence binding). The co-maximal
// placement (pos == n) is a sink extension, admitted without a model
// check (see admit).
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
		sink := pos == n
		e.fork(func() {
			if !e.admit(g2, sink) {
				return
			}
			e.visit(g2)
			e.maybeRevisitsFrom(g2, id, a.Loc)
		})
	}
}
