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
// phase, which could delete nothing.
//
// Expansion is split from scheduling: expand computes one state's checked
// children, its outcome and a counter delta, touching no shared state, and
// the schedulers are small drivers over it — drive, a depth-first search
// over an explicit stack (one per worker), and Estimate's Knuth probes. A
// pause (shared.request) is served between two pops, and the drivers'
// stacks are the pending frontier a checkpoint saves.
//
// Optimality — each consistent execution explored exactly once — comes
// from the exploration-state memo the drivers check before expanding a
// state: graphs are memoized on their canonical key, so a state rebuilt by
// a second revisit choreography is pruned rather than re-explored. There
// is no maximality side condition on revisits. Because complete runs only
// for a key the driver has just admitted to the memo, Stats.Duplicates
// under DedupSafeguard is 0 by construction and cannot referee the
// guarantee; the referee is the equality of the explored execution set
// with the axiomatic enumerator's and the operational machines'
// (internal/axenum, internal/operational, internal/crossval).
package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
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
	// Context, when non-nil, makes the exploration cancellable: the run's
	// watcher turns its cancellation into a request that every driver
	// checks before it expands the next state, so cancellation or a
	// deadline stops the run mid-exploration. An interrupted run is not an error — Explore
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
	// unlimited), checked periodically before states are expanded, against
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
	// sees keys the driver has just admitted to the memo. The safeguard becomes a live check
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
	// sequential). Each worker runs the depth-first driver on its own
	// stack. Exploration subtrees are independent — graphs are cloned per
	// branch and the state memo is synchronized — so a worker hands each
	// child it expands to a free worker and pushes it on its own stack
	// when every slot is busy; no task ever waits. Results are identical to
	// the sequential run except for ordering: Keys, Errors and the
	// OnExecution callback sequence follow completion order, not DFS order
	// (the callbacks themselves are serialized).
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
	// one), and any interruption or whole-run truncation saves the
	// drivers' stacks into a final snapshot on Result.Checkpoint instead
	// of discarding them (see checkpoint.go). Checkpointing changes how
	// the run *stops* — a cancelled context pauses the drivers and keeps
	// their stacks instead of hard-stopping — but never what it explores.
	// A cancellation that lands while a sink runs ends the run at the next
	// pause. StopOnError and engine panics still stop hard and yield no
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
	// branch point (the FailAfter-th state a driver pops) — the drivers'
	// stacks, that state included, go into a final checkpoint on
	// Result.Checkpoint with Interrupted set. This is the
	// resume-equivalence test hook ("kill at every k-th branch point"
	// without wall-clock races); production kills exercise the same
	// pause via Context cancellation.
	//hmc:transient(a deterministic kill injection: decides when the run stops, never what it explores)
	FailAfter int
	// Progress, when non-nil (with a Sink), delivers periodic
	// ProgressSnapshots of the running exploration: counters, rates,
	// frontier size and a sampled phase-timing breakdown (see
	// progress.go). A ticker on the run's watcher goroutine requests a
	// pause every Progress.Every; the snapshot is taken once every driver
	// has stopped between two states, so it is race-free and never
	// changes what is explored. A progress pause emits no
	// checkpoint. Like Workers, this is a transient knob: it is excluded
	// from checkpoint signatures, and interruption semantics are unchanged
	// (a progress-only run still hard-stops on cancellation).
	//hmc:transient(snapshots observe the run at quiescent points; they never change what is explored)
	Progress *ProgressOptions
	// Trace, when non-nil, streams structured exploration events —
	// served pauses ("wave"), revisits, static prunes, snapshots — as JSON
	// lines to the tracer (see internal/obs). Tracing alone starts no
	// phase timers: only progress snapshots read them. A tracer write
	// error is latched and reported by Tracer.Err, never aborting the run.
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
		// first pop pauses straight back into the checkpoint — continuing
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
	// The pause loop: drive the frontier until the work is done or a pause
	// is requested, wait for every worker to park its stack, and act on
	// exactly the requested reasons; then continue from the parked stacks.
	// A run that requests no pause takes exactly one trip.
	remaining := 0
	for {
		e.guard(func() { e.drive(frontier) })
		sh.wg.Wait()
		if sh.engineErr != nil {
			return nil, sh.engineErr
		}
		// A request that arrives from here on is left for the next trip,
		// whose first pop serves it.
		reasons := reason(sh.reasons.Swap(0))
		if reasons == 0 || sh.stop.Load() {
			// Exhausted, or hard-stopped: a hard stop (StopOnError, panic
			// wind-down) leaves the stacks incomplete, so no checkpoint is
			// safe.
			break
		}
		// Every driver is parked, so the stacks are read without the lock.
		pending := sh.pending
		sh.pending = nil
		e.wave++
		e.traceWave(len(pending))
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
			// Every driver is parked, so the counters read race-free.
			e.emitProgress(len(pending), false)
		}
		if sh.engineErr != nil {
			return nil, sh.engineErr
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
// so the drivers poll nothing but atomic flags. It returns once the
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
	// served pauses and is touched only on the Explore goroutine.
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
// the result, the state memo, the dedup table and the parked stacks; the
// stop flag and the pause reasons are atomic so the drivers can poll them
// without locking. Expansion only reads the graph it was handed (strict
// replay never mutates) and clones before extending, so the graph itself
// needs no synchronization.
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
	sem         chan struct{} // worker slots (nil: sequential)
	wg          sync.WaitGroup

	// Pause machinery (see request and checkpoint.go). reasons
	// accumulates what a pause is for until the pause loop takes it; while
	// it is non-zero every driver parks its stack in pending instead of
	// popping. ckpt marks a checkpointable run (Options.Checkpoint,
	// ResumeFrom or FailAfter).
	reasons atomic.Uint32
	pending []*eg.Graph // guarded by mu
	ckpt    bool
}

// reason is a bit set of what a pause request asks the pause loop to do
// once every driver is parked.
type reason uint32

const (
	reasonEnd        reason = 1 << iota // end the run with a final checkpoint
	reasonCheckpoint                    // emit a periodic checkpoint, continue
	reasonProgress                      // emit a progress snapshot, continue
)

// request asks for a pause before the next state is expanded. Every source
// of a pause calls it: the watcher (Options.Context, the progress clock),
// FailAfter, MaxExecutions, MemoryBudget and Checkpoint.EveryExecs. An end
// request on a run that is not checkpointable sets the hard stop instead:
// nothing would be captured, and abandoning the stacks keeps interruption
// immediate. Safe to call under mu (it takes no lock).
func (sh *shared) request(r reason) {
	if r&reasonEnd != 0 && !sh.ckpt {
		sh.stop.Store(true)
		return
	}
	for {
		old := sh.reasons.Load()
		if sh.reasons.CompareAndSwap(old, old|uint32(r)) {
			return
		}
	}
}

// interrupt ends the run on behalf of Options.Context or FailAfter.
func (sh *shared) interrupt() {
	sh.interrupted.Store(true)
	sh.request(reasonEnd)
}

// drive explores the subtrees of frontier, in order, depth first over an
// explicit stack: each pop checks the stop flag, the pause requests and
// the per-state bounds, admits the state to the memo, expands it, settles
// the expansion and pushes the children in reverse, so they are visited
// in the order expand lists them. States are memoized on their semantic
// key (per-thread events with values, rf and co): replay is
// deterministic, so equal keys have identical futures, and each state is
// explored exactly once. The memo also guarantees termination, as revisit
// chains could otherwise rebuild identical graphs forever. On a pause the
// driver parks the rest of its stack, in visit order, in the shared
// pending frontier; on a hard stop it drops it.
func (e *explorer) drive(frontier []*eg.Graph) {
	sh := e.sh
	stack := slices.Clone(frontier)
	slices.Reverse(stack)
	var x expansion
	for len(stack) > 0 {
		if sh.stop.Load() {
			return
		}
		if sh.reasons.Load() != 0 {
			break
		}
		g := stack[len(stack)-1]
		if n := e.opts.FailAfter; n > 0 && sh.faults.Add(1) == int64(n) {
			// Deterministic fault injection: "the process dies here". The
			// run is checkpointable, so g stays on the stack and heads the
			// pending frontier.
			sh.interrupt()
			break
		}
		stack = stack[:len(stack)-1]
		if e.opts.MaxEvents > 0 && g.NumEvents() > e.opts.MaxEvents {
			// Prune this oversized branch only: smaller graphs elsewhere in
			// the space are still explored, so the partial result covers
			// every execution within the event budget.
			e.truncate(TruncMaxEvents, false)
			continue
		}
		if e.overBudget() {
			// Under checkpointing g and the rest of the stacks are
			// captured, so a later run under a roomier budget picks up
			// exactly here.
			e.truncate(TruncMemoryBudget, true)
			stack = append(stack, g)
			break
		}
		key := e.key(g)
		if !e.admitState(g, key) {
			continue
		}
		e.expand(g, &x)
		e.settle(g, key, &x)
		n := len(stack)
		for _, k := range x.kids {
			if !e.handOff(k) {
				stack = append(stack, k)
			}
		}
		slices.Reverse(stack[n:])
	}
	slices.Reverse(stack)
	sh.mu.Lock()
	sh.pending = append(sh.pending, stack...)
	sh.mu.Unlock()
}

// handOff starts a worker on g's subtree when a slot is free. The worker
// runs under the guard, so a panic in its subtree is recorded as the run's
// EngineError and the other drivers wind down via the stop flag.
func (e *explorer) handOff(g *eg.Graph) bool {
	if e.sh.sem == nil {
		return false
	}
	select {
	case e.sh.sem <- struct{}{}:
	default:
		return false
	}
	e.sh.wg.Add(1)
	go func() {
		defer func() {
			<-e.sh.sem
			e.sh.wg.Done()
		}()
		e.guard(func() { e.drive([]*eg.Graph{g}) })
	}()
	return true
}

// overBudget reports whether the heap exceeds Options.MemoryBudget.
// ReadMemStats stops the world, so it is paced: the first visit (a
// pre-exceeded budget fails fast and deterministically) and then every
// memCheckInterval states.
func (e *explorer) overBudget() bool {
	if e.opts.MemoryBudget <= 0 {
		return false
	}
	if n := e.sh.visits.Add(1); n != 1 && n%memCheckInterval != 0 {
		return false
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc > uint64(e.opts.MemoryBudget)
}

// admitState inserts g's key into the memo, reporting false (a memo hit)
// when it is already there.
func (e *explorer) admitState(g *eg.Graph, key string) bool {
	sh := e.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.memo[key] {
		sh.res.MemoHits++
		return false
	}
	sh.memo[key] = true
	sh.res.States++
	if n := g.NumEvents(); n > sh.res.MaxGraphEvents {
		sh.res.MaxGraphEvents = n
	}
	return true
}

// settle folds x, the expansion of the admitted state g, into the result:
// its counter delta, and a blocked, failed or complete outcome. The
// deferred unlock matters for fault containment: a panicking OnBlocked or
// OnExecution callback must release the lock on its way to the guard, or
// the recovery path would deadlock on sh.mu.
func (e *explorer) settle(g *eg.Graph, key string, x *expansion) {
	sh := e.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.res.Stats.add(&x.d)
	if x.depViolation != "" {
		sh.res.DepViolations++
		if len(sh.res.DepViolationDetails) < maxDepViolationDetails {
			sh.res.DepViolationDetails = append(sh.res.DepViolationDetails, x.depViolation)
		}
	}
	switch x.out {
	case outBlocked:
		sh.res.Blocked++
		if e.opts.OnBlocked != nil {
			e.opts.OnBlocked(g)
		}
	case outError:
		// g is never mutated once built, so it is the witness itself.
		x.err.Graph = g
		sh.res.Errors = append(sh.res.Errors, x.err)
		if e.opts.StopOnError {
			sh.stop.Store(true)
		}
	case outComplete:
		e.complete(g, key, x.fs)
	}
}

// complete records a finished execution with its final state fs; key is
// g's canonical key, as the driver computed it for the memo. It runs under
// sh.mu — dedup, counters, key collection and the user callback — so
// OnExecution invocations are serialized even in parallel mode.
func (e *explorer) complete(g *eg.Graph, key string, fs prog.FinalState) {
	sh := e.sh
	if e.opts.MaxExecutions > 0 && sh.res.Executions >= e.opts.MaxExecutions {
		return // a parallel worker completed while the cap was being hit
	}
	if sh.seen != nil {
		if sh.seen[key] {
			sh.res.Duplicates++
			return
		}
		sh.seen[key] = true
	}
	sh.res.Executions++
	if e.p.Exists != nil && e.p.Exists(fs) {
		sh.res.ExistsCount++
	}
	if e.opts.CollectKeys {
		sh.res.Keys = append(sh.res.Keys, key)
	}
	if e.opts.OnExecution != nil {
		e.opts.OnExecution(g, fs)
	}
	if e.opts.MaxExecutions > 0 && sh.res.Executions >= e.opts.MaxExecutions {
		// Under checkpointing the stacks land in the final checkpoint, so
		// a run resumed under a higher bound continues from here.
		sh.truncateLocked(TruncMaxExecutions)
		sh.request(reasonEnd)
		return
	}
	if co := e.opts.Checkpoint; co != nil && co.Sink != nil && co.EveryExecs > 0 &&
		sh.res.Executions%co.EveryExecs == 0 {
		// Periodic snapshot: the pause loop in Explore emits the
		// checkpoint once every driver has parked its stack, and resumes
		// from the parked frontier. The T14 experiment measures the
		// overhead against EveryExecs.
		sh.request(reasonCheckpoint)
	}
}

// outcome classifies an expanded state.
type outcome uint8

const (
	outInner    outcome = iota // has an event to add: the children are its successors
	outComplete                // every thread is done: a complete execution
	outBlocked                 // no thread can add an event and some thread is blocked
	outError                   // a thread failed an assertion
)

// expansion is what expand computes for one state. The drivers reuse one
// expansion per stack, so the children slice is recycled.
type expansion struct {
	kids []*eg.Graph // the checked children, in visit order (outInner)
	out  outcome
	err  ErrorReport     // the assertion failure, without its graph (outError)
	fs   prog.FinalState // a complete execution's final state, when Exists or OnExecution needs it
	// d is the counter delta: the checks, sink extensions, revisits and
	// static prunes the expansion did. depViolation describes a CheckDeps
	// violation of the state's next action ("" when none).
	d            Stats
	depViolation string
}

// add folds an expansion's counter delta into s.
func (s *Stats) add(d *Stats) {
	s.ConsistencyChecks += d.ConsistencyChecks
	s.SinkExtensions += d.SinkExtensions
	s.RevisitsTried += d.RevisitsTried
	s.RevisitsTaken += d.RevisitsTaken
	s.RevisitsRepairFail += d.RevisitsRepairFail
	s.RevisitsPorfSkip += d.RevisitsPorfSkip
	s.StaticPrunedRf += d.StaticPrunedRf
	s.StaticPrunedCo += d.StaticPrunedCo
	s.StaticPrunedScans += d.StaticPrunedScans
}

// expand computes g's successors into x: it replays the threads until one
// has an event to add and builds every checked child of that step — for
// each rf or co candidate the admitted child, followed by the children of
// that child's backward revisits, with a chain steal's fallback revisit in
// its candidate's place. Each revisit is a function of the admitted child
// alone, so listing a child's revisit children before its subtree is
// explored changes nothing the search computes. expand admits nothing to
// the memo, takes no lock, starts no goroutine and runs no user callback.
func (e *explorer) expand(g *eg.Graph, x *expansion) {
	*x = expansion{kids: x.kids[:0]}
	var fs *prog.FinalState
	if e.p.Exists != nil || e.opts.OnExecution != nil {
		fs = &x.fs
	}
	ts := e.tInterp.Start()
	t, a, blocked := interp.Scan(e.p, g, e.opts.MaxSteps, fs)
	e.tInterp.Stop(ts)
	switch {
	case t < 0 && blocked:
		x.out = outBlocked
	case t < 0:
		x.out = outComplete
	case a.Kind == interp.ActError:
		x.out, x.err = outError, ErrorReport{Thread: t, Msg: a.Msg}
	default:
		if e.opts.CheckDeps && e.static != nil {
			x.depViolation = e.verifyDeps(g, t, a)
		}
		e.step(g, t, a, x)
	}
}

// consistent checks g under the model, counting (and phase-timing) the
// check.
func (e *explorer) consistent(g *eg.Graph, x *expansion) bool {
	x.d.ConsistencyChecks++
	ts := e.tConsist.Start()
	v := eg.GetView(g)
	ok := e.opts.Model.Consistent(v)
	eg.PutView(v)
	e.tConsist.Stop(ts)
	return ok
}

// admit decides whether a forward extension g2 of a visited graph is a
// child, and adds it to x when it is. Every visited graph is consistent,
// so when the new event is a sink — po-maximal, with no readers and no co
// or fr successor — no axiom of any model gains an edge out of it and g2
// is consistent too (the extension contract on memmodel.Model): it is
// admitted without a model check and counted in SinkExtensions. Any other
// extension must pass the check.
func (e *explorer) admit(g2 *eg.Graph, sink bool, x *expansion) bool {
	if sink {
		x.d.SinkExtensions++
		if e.auditSink != nil {
			e.auditSink(g2)
		}
	} else if !e.consistent(g2, x) {
		return false
	}
	x.kids = append(x.kids, g2)
	return true
}

// step expands thread t's next action on g. A fence is always a sink
// extension (see admit): it orders events around it, and nothing follows
// it in its thread.
func (e *explorer) step(g *eg.Graph, t int, a interp.Action, x *expansion) {
	id := eg.EvID{T: t, I: g.ThreadLen(t)}
	switch {
	case a.Kind == interp.ActFence:
		g2 := g.Clone()
		g2.Add(a.MakeEvent(id, 0))
		e.admit(g2, true, x)

	case a.Reads():
		e.stepRead(g, id, a, x)

	case a.Kind == interp.ActStore:
		e.stepWrite(g, id, a, x)

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
func (e *explorer) stepRead(g *eg.Graph, id eg.EvID, a interp.Action, x *expansion) {
	ws := g.WritesTo(a.Loc) // coherence order, init first
	if len(ws) > 1 && e.pruneRF(a.Loc) {
		// Thread-local location: every write in ws shares this read's
		// thread and is po-before it, so coherence admits exactly the
		// co-maximal rf source (the last element); see staticprune.go.
		x.d.StaticPrunedRf += len(ws) - 1
		e.tracePrune("rf", len(ws)-1)
		ws = ws[len(ws)-1:]
	}
	for i, w := range ws {
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
					e.revisit(pre, id, u, x)
					continue
				}
			}
		}
		if e.admit(g2, sink, x) && ev.Kind == eg.KUpdate {
			// The update's write part may backward-revisit plain reads;
			// computed per rf-branch so the kept prefix includes this
			// branch's rf source.
			e.revisitsFrom(g2, id, a.Loc, x)
		}
	}
}

// updateReading returns the update event that reads from w at loc, if any
// (at most one exists in an atomicity-consistent graph).
func updateReading(g *eg.Graph, loc eg.Loc, w eg.EvID) (u eg.EvID, ok bool) {
	g.ForEachReader(w, func(r eg.EvID) {
		if ev := g.At(r); ev.Kind == eg.KUpdate && ev.Loc == loc {
			u, ok = r, true
		}
	})
	return u, ok
}

// stepWrite branches over coherence positions; each consistent placement
// additionally performs backward revisits (per position, so the kept
// prefix reflects this branch's coherence binding). The co-maximal
// placement (pos == n) is a sink extension, admitted without a model
// check (see admit).
func (e *explorer) stepWrite(g *eg.Graph, id eg.EvID, a interp.Action, x *expansion) {
	n := len(g.CoLoc(a.Loc))
	start := 0
	if n > 0 && e.pruneCo(a.Loc) {
		// Single-writer location: every existing write shares this
		// write's thread and is po-before it, so the only coherent
		// placement is co-maximal; see staticprune.go.
		x.d.StaticPrunedCo += n
		e.tracePrune("co", n)
		start = n
	}
	for pos := start; pos <= n; pos++ {
		g2 := g.Clone()
		g2.Add(a.MakeEvent(id, 0))
		g2.CoInsert(a.Loc, pos, id)
		if e.admit(g2, pos == n, x) {
			e.revisitsFrom(g2, id, a.Loc, x)
		}
	}
}
