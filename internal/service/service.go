// Package service turns the one-shot explorer in internal/core into a
// long-running, multi-tenant model-checking service: a bounded job queue
// drained by a pool of workers, per-job deadlines and client cancellation
// (via the explorer's Options.Context support), a content-addressed LRU
// verdict cache so repeat submissions of an already-verified program are
// answered without re-exploration, and Prometheus-style metrics. The HTTP
// surface over it lives in http.go; cmd/hmcd is the thin binary shell.
//
// Concurrency model: one goroutine per configured worker ranges over the
// queue channel; each job gets its own context (deadline and/or client
// cancel) threaded into core.Explore, so a stuck or oversized exploration
// cannot wedge a worker past its deadline. Job records live in a map
// guarded by one mutex — every exploration datum lives in the explorer's
// own shared state, so the service lock is only touched at job
// transitions, never per-event. Shutdown closes the queue, lets queued
// jobs drain, and hard-cancels in-flight work only when the caller's
// drain context expires.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hmc/internal/analyze"
	"hmc/internal/backend"
	"hmc/internal/core"
	"hmc/internal/faultinject"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/obs"
	"hmc/internal/prog"
)

// Config sizes the service. Zero values select the defaults.
type Config struct {
	// QueueSize bounds the number of jobs waiting to run (default 64).
	// A full queue rejects submissions with ErrQueueFull — backpressure,
	// not unbounded buffering.
	QueueSize int
	// Workers is the number of jobs explored concurrently (default 2).
	Workers int
	// CacheSize is the verdict cache capacity in entries (default 128;
	// negative disables caching).
	CacheSize int
	// DefaultTimeout applies to jobs submitted without a deadline
	// (default none: such jobs run to exhaustion).
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested deadline (default none).
	MaxTimeout time.Duration
	// JobHistory bounds the finished-job records retained for polling
	// (default 1024); the oldest finished jobs are forgotten first.
	JobHistory int
	// CrashDir is where engine-crash artifacts are written (default
	// "hmcd-crashes" under the working directory). Empty string is the
	// default; set MaxCrashArtifacts negative to disable capture.
	CrashDir string
	// MaxCrashArtifacts bounds the crash directory (default 32, oldest
	// evicted first; negative disables artifact capture entirely).
	MaxCrashArtifacts int
	// MaxAttempts is how many times a job whose exploration was cut short
	// by the memory budget — a transient, machine-state-dependent
	// condition, unlike the deterministic execution/event caps — is run
	// before its partial result is accepted (default 2).
	MaxAttempts int
	// RetryBackoff is the pause before each retry attempt (default 50ms).
	RetryBackoff time.Duration
	// BreakerThreshold trips the per-fingerprint circuit breaker: after
	// this many engine crashes on one program content, submissions of that
	// fingerprint are rejected with ErrCircuitOpen until BreakerCooldown
	// has passed (default 3; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped fingerprint stays rejected
	// after its last crash (default 10m).
	BreakerCooldown time.Duration
	// JournalDir, when set, makes the service durable: accepted jobs,
	// periodic exploration checkpoints and terminal transitions are
	// written to a fsynced write-ahead journal there, and the verdict
	// cache is persisted to verdicts.json alongside it. On startup the
	// journal is replayed — jobs that were queued or running when the
	// process died are re-enqueued, resuming from their last checkpoint.
	// Empty disables durability (the previous, in-memory-only behavior).
	JournalDir string
	// JournalMaxBytes rotates the journal file past this size; each fresh
	// file starts with a compaction snapshot of the incomplete jobs
	// (default 4 MiB).
	JournalMaxBytes int64
	// CheckpointEveryExecs is how often a running exploration drains into
	// a journal checkpoint, in executions (default 2000; only meaningful
	// with JournalDir). Smaller loses less work to a crash; larger
	// checkpoints less often. See experiment T14 for the overhead curve.
	CheckpointEveryExecs int
	// ProgressEvery is how often a running job publishes a progress
	// snapshot — served live in job polls, the /progress long-poll and the
	// histograms (default 1s; negative disables progress entirely).
	// Snapshots ride the explorer's drain barrier, so the overhead is one
	// wave pause per cadence (EXPERIMENTS.md T15 bounds it at <5%).
	ProgressEvery time.Duration
	// ChaosPlan, when non-nil, threads a deterministic fault-injection
	// plan (internal/faultinject) through the journal file — the dev-only
	// harness behind `hmcd -chaos-plan`. Never set in production.
	ChaosPlan *faultinject.Plan
	// Portfolio races every applicable backend (internal/backend) on each
	// non-resumed job and cross-attests the verdicts. The DFS anchor still
	// produces the served result — behavior is identical to the
	// single-engine path — but a confirmed disagreement quarantines the
	// job instead of serving either answer.
	Portfolio bool
	// PortfolioBackendTimeout is the per-run deadline for the non-anchor
	// backends (default 30s; the anchor is bounded only by the job).
	PortfolioBackendTimeout time.Duration
	// PortfolioGrace bounds how long losing backends keep cross-checking
	// after a win (0 = backend.DefaultGrace; negative cancels immediately).
	PortfolioGrace time.Duration
	// QuarantineDir is where disagreement artifacts are written (default
	// "hmcd-quarantine"); MaxQuarantineArtifacts bounds the directory
	// (default 32, oldest evicted; negative disables capture).
	QuarantineDir          string
	MaxQuarantineArtifacts int
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 1024
	}
	if c.CrashDir == "" {
		c.CrashDir = "hmcd-crashes"
	}
	if c.MaxCrashArtifacts == 0 {
		c.MaxCrashArtifacts = 32
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Minute
	}
	if c.JournalMaxBytes <= 0 {
		c.JournalMaxBytes = defaultJournalMaxBytes
	}
	if c.CheckpointEveryExecs <= 0 {
		c.CheckpointEveryExecs = 2000
	}
	if c.ProgressEvery == 0 {
		c.ProgressEvery = core.DefaultProgressEvery
	}
	if c.PortfolioBackendTimeout == 0 {
		c.PortfolioBackendTimeout = 30 * time.Second
	}
	if c.QuarantineDir == "" {
		c.QuarantineDir = "hmcd-quarantine"
	}
	if c.MaxQuarantineArtifacts == 0 {
		c.MaxQuarantineArtifacts = 32
	}
	return c
}

// JobState is the lifecycle of a job: queued → running → one of
// done/failed/canceled/quarantined. Cache hits are born done.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
	// StateQuarantined is the distinct failure of a portfolio job whose
	// backends disagreed: no verdict is served or cached, and the
	// disagreement artifact holds both answers for replay.
	StateQuarantined JobState = "quarantined"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateQuarantined
}

// SubmitRequest describes one checking job.
type SubmitRequest struct {
	// Program is the test case to check (required).
	Program *prog.Program
	// Model names the memory model (required; see memmodel.Names).
	Model string
	// MaxExecutions, MaxEvents, MemoryBudget, Workers, Symmetry mirror
	// core.Options.
	MaxExecutions int
	MaxEvents     int
	MemoryBudget  int64
	Workers       int
	Symmetry      bool
	// Timeout is the job's wall-clock budget (0: Config.DefaultTimeout).
	// A job that exceeds it completes with a partial, Interrupted result.
	Timeout time.Duration
	// Source/Test record how the program was submitted (litmus text or a
	// corpus test name); either makes a crash artifact replayable with
	// `hmc -repro`. Optional — library callers passing a built Program may
	// leave both empty, at the cost of dump-only artifacts.
	Source string
	Test   string
}

// Submission errors.
var (
	ErrQueueFull   = errors.New("service: job queue is full")
	ErrDraining    = errors.New("service: shutting down, not accepting jobs")
	ErrCircuitOpen = errors.New("service: circuit open: this program recently crashed the engine, retry after cooldown")
)

// Job is the internal job record; the exported snapshot type is JobView.
type Job struct {
	id          string
	state       JobState
	req         SubmitRequest
	model       memmodel.Model
	fingerprint string
	cacheKey    string
	cacheHit    bool
	submitted   time.Time
	started     time.Time
	finished    time.Time
	result      *core.Result
	errMsg      string
	diagnostics []string
	attempts    int
	engineErr   *core.EngineError
	artifact    string // crash artifact path, when one was written

	// Portfolio attestation: the per-backend trail, the winning verdict
	// (published the moment it lands, before cross-checking completes)
	// and the disagreement artifact path when the job was quarantined.
	attestation []backend.Attempt
	winner      *backend.Verdict
	quarantine  string

	cancel     context.CancelFunc // non-nil only while running
	userCancel bool               // Cancel() was called
	resumeFrom *core.Checkpoint   // journal-replayed checkpoint to resume from
	resumed    bool               // this job continued a pre-restart exploration

	// progress is the job's latest exploration snapshot (nil until the
	// first one lands); progressCh, when non-nil, is closed to wake
	// long-poll waiters on each new snapshot and on the terminal
	// transition. progressSeq renumbers snapshots monotonically across
	// retry attempts (each attempt's explorer restarts its own Seq at 1,
	// which would strand long-poll clients holding a higher one). All are
	// guarded by the service mutex.
	progress    *obs.ProgressSnapshot
	progressSeq int
	progressCh  chan struct{}
}

// notifyProgressLocked wakes every waiter blocked on the job's progress.
// Callers hold s.mu.
func (j *Job) notifyProgressLocked() {
	if j.progressCh != nil {
		close(j.progressCh)
		j.progressCh = nil
	}
}

// JobView is an immutable snapshot of a job, safe to hold across the
// service lock. Result is shared (it is never mutated after completion).
type JobView struct {
	ID          string
	State       JobState
	Program     string
	Fingerprint string
	Model       string
	ExistsDesc  string
	CacheHit    bool
	Submitted   time.Time
	Started     time.Time
	Finished    time.Time
	Err         string
	Result      *core.Result
	// Diagnostics are the static-analysis findings (internal/analyze)
	// computed for the program at submission, rendered in the vet report
	// format. Purely advisory: findings never block a job.
	Diagnostics []string
	// Attempts counts exploration attempts (>1 after memory-budget
	// retries). EngineError carries the structured diagnostics of a
	// contained engine panic; CrashArtifact is the repro file's path.
	Attempts      int
	EngineError   *core.EngineError
	CrashArtifact string
	// Resumed marks a job that survived a daemon restart: it was replayed
	// from the journal and its exploration continued from the last
	// checkpoint instead of starting over.
	Resumed bool
	// Attestation is the portfolio's per-backend trail (nil on the
	// single-engine path); Winner is the first exhaustive verdict of the
	// race, published before cross-checking completes. QuarantineArtifact
	// is the disagreement repro's path when the job was quarantined.
	Attestation        []backend.Attempt
	Winner             *backend.Verdict
	QuarantineArtifact string
	// Progress is the job's latest exploration snapshot: live counters and
	// rates while running, the final (counters == Result) snapshot once
	// done. Nil before the first snapshot and for cache hits. The pointee
	// is never mutated after publication.
	Progress *obs.ProgressSnapshot
}

func (j *Job) view() JobView {
	return JobView{
		ID:            j.id,
		State:         j.state,
		Program:       j.req.Program.Name,
		Fingerprint:   j.fingerprint,
		Model:         j.req.Model,
		ExistsDesc:    j.req.Program.ExistsDesc,
		CacheHit:      j.cacheHit,
		Submitted:     j.submitted,
		Started:       j.started,
		Finished:      j.finished,
		Err:           j.errMsg,
		Result:        j.result,
		Diagnostics:   j.diagnostics,
		Attempts:      j.attempts,
		EngineError:   j.engineErr,
		CrashArtifact: j.artifact,
		Resumed:       j.resumed,
		Attestation:   j.attestation,
		Winner:        j.winner,

		QuarantineArtifact: j.quarantine,
		Progress:           j.progress,
	}
}

// Service is a running model-checking daemon core.
type Service struct {
	cfg     Config
	cache   *verdictCache
	metrics Metrics
	crashes *crashStore // nil when artifact capture is disabled
	journal *journal    // nil when Config.JournalDir is empty

	// quarantines stores disagreement artifacts (nil when capture is
	// disabled); alternates are the non-anchor portfolio backends — nil
	// selects the standard pair, tests inject mocks here.
	quarantines *crashStore
	alternates  []backend.Backend

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // finished job ids, oldest first (history eviction)
	queue    chan *Job
	draining bool
	nextID   int
	breaker  *breaker

	crashMu   sync.Mutex // serializes artifact writes (held without s.mu)
	persistMu sync.Mutex // serializes verdict-file writes (held without s.mu)

	// ready flips once journal replay has re-enqueued every incomplete
	// job; /readyz gates on it so a load balancer does not route fresh
	// submissions to a daemon still rebuilding its backlog. killed is the
	// restart-test hook: all durable writes stop, as if SIGKILLed.
	ready   atomic.Bool
	killed  atomic.Bool
	drainCh chan struct{}  // closed when draining starts (unblocks replay)
	replay  sync.WaitGroup // the replay goroutine

	wg sync.WaitGroup // worker goroutines
}

// New starts a service with cfg's worker pool already draining the queue.
// With Config.JournalDir set it first replays the journal — re-enqueueing
// jobs that were incomplete when the previous process died, resuming each
// from its last checkpoint — and reloads the persisted verdict cache; the
// error return is for a journal directory that cannot be opened. Call
// Shutdown to stop the service.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		cache:   newVerdictCache(cfg.CacheSize),
		jobs:    make(map[string]*Job),
		queue:   make(chan *Job, cfg.QueueSize),
		breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		drainCh: make(chan struct{}),
	}
	s.cache.evictions = &s.metrics.CacheEvictions
	if cfg.MaxCrashArtifacts > 0 {
		s.crashes = &crashStore{dir: cfg.CrashDir, max: cfg.MaxCrashArtifacts}
	}
	if cfg.Portfolio && cfg.MaxQuarantineArtifacts > 0 {
		s.quarantines = &crashStore{dir: cfg.QuarantineDir, max: cfg.MaxQuarantineArtifacts}
	}
	var replay []*journalJob
	if cfg.JournalDir != "" {
		hooks := journalHooks{
			OnWriteError: func(error) { s.metrics.JournalWriteErrors.Add(1) },
		}
		if cfg.ChaosPlan != nil && cfg.ChaosPlan.Journal != nil {
			plan := cfg.ChaosPlan
			hooks.Wrap = func(f journalFile) journalFile { return faultinject.WrapFile(f, plan, nil) }
		}
		jl, stats, err := openJournalWith(cfg.JournalDir, cfg.JournalMaxBytes, hooks)
		if err != nil {
			return nil, fmt.Errorf("service: journal: %w", err)
		}
		s.journal = jl
		s.metrics.JournalSkippedRecords.Add(int64(stats.skipped + stats.wrongSchema))
		s.nextID = jl.maxLiveID()
		if cfg.CacheSize > 0 {
			s.metrics.VerdictsReloaded.Add(int64(loadVerdicts(cfg.JournalDir, s.cache)))
		}
		replay = jl.takeLive()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.safeRunJob(j)
			}
		}()
	}
	// Re-enqueue the journal backlog off the startup path: replay may
	// block on a full queue, and the workers started above are already
	// draining it. ready flips only after the whole backlog is queued.
	s.replay.Add(1)
	go func() {
		defer s.replay.Done()
		defer s.ready.Store(true)
		for _, jj := range replay {
			s.replayJob(jj)
		}
	}()
	return s, nil
}

// replayJob rebuilds one journaled job and re-enqueues it. A job whose
// program can no longer be rebuilt (corpus test renamed, source no longer
// parsing under this binary) is recorded as failed — and journaled done,
// so it is not replayed forever. A checkpoint that no longer decodes or
// matches is dropped: the job runs fresh rather than not at all.
func (s *Service) replayJob(jj *journalJob) {
	rec := jj.submit
	req := SubmitRequest{
		Model:         rec.Model,
		MaxExecutions: rec.MaxExecutions,
		MaxEvents:     rec.MaxEvents,
		MemoryBudget:  rec.MemoryBudget,
		Workers:       rec.Workers,
		Symmetry:      rec.Symmetry,
		Timeout:       time.Duration(rec.TimeoutMS) * time.Millisecond,
		Source:        rec.Source,
		Test:          rec.Test,
	}
	var buildErr error
	switch {
	case rec.Source != "":
		req.Program, buildErr = litmus.Parse(rec.Source)
	case rec.Test != "":
		tc, ok := litmus.ByName(rec.Test)
		if !ok {
			buildErr = fmt.Errorf("service: journal replay: unknown corpus test %q", rec.Test)
		} else {
			req.Program = tc.P
		}
	}
	var model memmodel.Model
	if buildErr == nil {
		model, buildErr = memmodel.ByName(rec.Model)
	}
	j := &Job{
		id:        rec.ID,
		state:     StateQueued,
		req:       req,
		model:     model,
		submitted: time.Now(),
	}
	if buildErr != nil {
		s.mu.Lock()
		j.state = StateFailed
		j.errMsg = buildErr.Error()
		j.finished = time.Now()
		s.jobs[j.id] = j
		s.metrics.JobsFailed.Add(1)
		s.recordFinishedLocked(j)
		s.mu.Unlock()
		s.journal.done(j.id, StateFailed)
		return
	}
	j.fingerprint = req.Program.Fingerprint()
	j.cacheKey = cacheKey(j.fingerprint, req)
	if cp, err := core.DecodeCheckpoint(jj.checkpoint); err == nil && len(jj.checkpoint) > 0 {
		j.resumeFrom = cp
		j.resumed = true
		s.metrics.ResumeSavedExecs.Add(int64(cp.Stats.Executions))
	}
	s.metrics.JournalReplayedJobs.Add(1)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return // still live in the journal; the next startup replays it
	}
	s.jobs[j.id] = j
	s.mu.Unlock()
	select {
	case s.queue <- j:
	case <-s.drainCh:
		// Shutdown won the race for queue space. Leave the job live in
		// the journal (no done record): it replays on the next start.
		s.mu.Lock()
		if j.state == StateQueued {
			j.state = StateCanceled
			j.finished = time.Now()
			s.metrics.JobsCanceled.Add(1)
			s.recordFinishedLocked(j)
		}
		s.mu.Unlock()
	}
}

// Ready reports whether the service has finished replaying its journal
// backlog and is not draining — the /readyz signal.
func (s *Service) Ready() bool {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return s.ready.Load() && !draining
}

// safeRunJob is the worker loop's last line of defense: core.Explore
// already converts engine panics to errors, but a panic in the service's
// own bookkeeping (or an exotic escape from the engine boundary) must
// still fail only the one job, never the worker goroutine — a dead worker
// would silently shrink the pool for the life of the process.
func (s *Service) safeRunJob(j *Job) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.mu.Lock()
		if j.state.Terminal() {
			s.mu.Unlock()
			return
		}
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("service: worker panic: %v", r)
		j.finished = time.Now()
		j.cancel = nil
		s.metrics.JobsFailed.Add(1)
		s.recordFinishedLocked(j)
		s.mu.Unlock()
		if s.journal != nil {
			s.journal.done(j.id, StateFailed)
		}
	}()
	s.runJob(j)
}

// Metrics exposes the counters (for tests and embedding servers).
func (s *Service) Metrics() *Metrics { return &s.metrics }

// Config returns the effective configuration — cfg as passed to New with
// defaults applied (what the service actually runs with).
func (s *Service) Config() Config { return s.cfg }

// QueueDepth reports the jobs currently waiting.
func (s *Service) QueueDepth() int { return len(s.queue) }

// cacheKey builds the verdict-cache key: everything that determines the
// result, nothing that only determines how fast it is computed (Workers)
// or what a client called the program (the fingerprint ignores names).
// MemoryBudget is deliberately excluded: a memory-truncated result is
// transient and never cached (see runJob), and an untruncated run under a
// budget equals the unbudgeted run.
func cacheKey(fp string, req SubmitRequest) string {
	return fmt.Sprintf("%s|%s|max=%d|maxev=%d|symm=%v", fp, req.Model, req.MaxExecutions, req.MaxEvents, req.Symmetry)
}

// Submit validates req, answers it from the verdict cache when possible,
// and otherwise enqueues it. It returns the job snapshot — immediately
// terminal on a cache hit — or ErrQueueFull/ErrDraining under pressure.
func (s *Service) Submit(req SubmitRequest) (JobView, error) {
	if req.Program == nil {
		return JobView{}, errors.New("service: request has no program")
	}
	model, err := memmodel.ByName(req.Model)
	if err != nil {
		return JobView{}, err
	}
	if err := req.Program.Validate(); err != nil {
		return JobView{}, err
	}
	if req.Timeout <= 0 {
		req.Timeout = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (req.Timeout <= 0 || req.Timeout > s.cfg.MaxTimeout) {
		req.Timeout = s.cfg.MaxTimeout
	}
	fp := req.Program.Fingerprint()

	// Static analysis is cheap (one pass over a litmus-sized program) and
	// pure, so it runs outside the service lock on every submission; the
	// findings ride along on the job for clients that want them.
	var diags []string
	for _, f := range analyze.Analyze(req.Program).Lint(req.Model) {
		diags = append(diags, f.String())
	}
	s.metrics.VetFindings.Add(int64(len(diags)))

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.JobsRejected.Add(1)
		return JobView{}, ErrDraining
	}
	if !s.breaker.allow(fp, time.Now()) {
		s.mu.Unlock()
		s.metrics.BreakerRejected.Add(1)
		return JobView{}, ErrCircuitOpen
	}
	s.nextID++
	j := &Job{
		id:          fmt.Sprintf("job-%06d", s.nextID),
		state:       StateQueued,
		req:         req,
		model:       model,
		fingerprint: fp,
		cacheKey:    cacheKey(fp, req),
		diagnostics: diags,
		submitted:   time.Now(),
	}
	s.metrics.JobsSubmitted.Add(1)
	if res, ok := s.cache.get(j.cacheKey); ok {
		s.metrics.CacheHits.Add(1)
		j.state = StateDone
		j.cacheHit = true
		j.result = res
		j.finished = j.submitted
		s.jobs[j.id] = j
		s.recordFinishedLocked(j)
		view := j.view()
		s.mu.Unlock()
		return view, nil
	}
	s.metrics.CacheMisses.Add(1)
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
	default:
		s.mu.Unlock()
		s.metrics.JobsRejected.Add(1)
		return JobView{}, ErrQueueFull
	}
	view := j.view()
	s.mu.Unlock()
	// Journal the accepted job before answering (the fsync is the
	// durability point), outside s.mu so disk latency never blocks polls.
	if s.journal != nil {
		s.journal.submit(j.id, req)
	}
	return view, nil
}

// Get returns a snapshot of the job with the given id.
func (s *Service) Get(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Jobs snapshots every retained job, newest first.
func (s *Service) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	views := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.view())
	}
	for i, k := 0, len(views)-1; i < k; i, k = i+1, k-1 {
		views[i], views[k] = views[k], views[i]
	}
	return views
}

// Cancel asks the job to stop: a queued job is marked canceled and will
// be skipped when dequeued; a running job's context is cancelled and its
// partial result retained. Terminal jobs are left alone (reported false).
func (s *Service) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.state.Terminal() {
		s.mu.Unlock()
		return false
	}
	j.userCancel = true
	if j.state == StateQueued {
		j.state = StateCanceled
		j.finished = time.Now()
		s.metrics.JobsCanceled.Add(1)
		s.recordFinishedLocked(j)
		s.mu.Unlock()
		// Retire the job from the journal outside s.mu (fsync latency).
		if s.journal != nil {
			s.journal.done(id, StateCanceled)
		}
		return true
	}
	if j.cancel != nil {
		j.cancel()
	}
	s.mu.Unlock()
	return true
}

// runJob explores one dequeued job with its own deadline context. A run
// cut short by the memory budget — transient pressure, not a property of
// the program — is retried with backoff up to Config.MaxAttempts; an
// engine panic (surfaced as *core.EngineError by the explorer's recovery
// boundary) fails the job, writes a crash artifact, and feeds the circuit
// breaker. The worker loop itself is additionally guarded in New as the
// second line of defense: even a panic escaping runJob's own bookkeeping
// must not kill a worker goroutine.
func (s *Service) runJob(j *Job) {
	s.mu.Lock()
	if j.state != StateQueued { // canceled while waiting
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	s.mu.Unlock()

	// Periodic checkpoints flow straight into the journal; the sink runs
	// on the explorer's drain barrier, so journal fsync latency paces
	// checkpointing, never individual executions.
	var ckptOpts *core.CheckpointOptions
	if s.journal != nil {
		ckptOpts = &core.CheckpointOptions{
			EveryExecs: s.cfg.CheckpointEveryExecs,
			Sink: func(cp *core.Checkpoint) {
				if s.journal.checkpoint(j.id, cp) {
					s.metrics.JournalCheckpoints.Add(1)
				}
			},
		}
	}

	// Live progress: each snapshot is published for polling, wakes the
	// /progress long-pollers and feeds the histograms. The sink runs on the
	// exploration goroutine between waves; s.mu is only ever held for
	// job-transition bookkeeping (never while exploring), so taking it
	// here cannot deadlock or stall other jobs.
	var progOpts *core.ProgressOptions
	if s.cfg.ProgressEvery > 0 {
		progOpts = &core.ProgressOptions{
			Every: s.cfg.ProgressEvery,
			Sink:  func(snap obs.ProgressSnapshot) { s.observeProgress(j, snap) },
		}
	}

	// explore runs one attempt.
	explore := func(ctx context.Context) (*core.Result, error) {
		copts := core.Options{
			Model:         j.model,
			Context:       ctx,
			MaxExecutions: j.req.MaxExecutions,
			MaxEvents:     j.req.MaxEvents,
			MemoryBudget:  j.req.MemoryBudget,
			Workers:       j.req.Workers,
			Symmetry:      j.req.Symmetry,
			ResumeFrom:    j.resumeFrom,
			Checkpoint:    ckptOpts,
			Progress:      progOpts,
		}
		// The portfolio covers plain one-explorer runs; a job resuming
		// from a checkpoint (journal replay, memory-budget retry) covers a
		// prefix no other engine can reproduce, so it runs the DFS alone.
		if s.cfg.Portfolio && j.resumeFrom == nil {
			return s.explorePortfolio(ctx, j, copts)
		}
		return core.Explore(j.req.Program, copts)
	}

	var res *core.Result
	var err error
	for attempt := 1; ; attempt++ {
		ctx := context.Background()
		var cancel context.CancelFunc
		if j.req.Timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, j.req.Timeout)
		} else {
			ctx, cancel = context.WithCancel(ctx)
		}
		s.mu.Lock()
		j.cancel = cancel
		j.attempts = attempt
		userCancel := j.userCancel
		s.mu.Unlock()
		if userCancel {
			cancel()
		}

		s.metrics.InFlight.Add(1)
		res, err = explore(ctx)
		s.metrics.InFlight.Add(-1)
		cancel()

		s.mu.Lock()
		j.cancel = nil
		userCancel = j.userCancel
		s.mu.Unlock()
		if errors.Is(err, core.ErrCheckpointMismatch) && j.resumeFrom != nil {
			// The journaled checkpoint no longer matches this program,
			// model or engine (e.g. the binary changed under the journal).
			// Run fresh rather than fail; the retry does not consume an
			// attempt — nothing was explored yet.
			s.mu.Lock()
			j.resumeFrom = nil
			j.resumed = false
			s.mu.Unlock()
			attempt--
			continue
		}
		if err != nil || userCancel || attempt >= s.cfg.MaxAttempts ||
			res.TruncatedReason != core.TruncMemoryBudget {
			break
		}
		// A memory-budget retry resumes from the final checkpoint the
		// truncated run handed back instead of starting over.
		if res.Checkpoint != nil {
			j.resumeFrom = res.Checkpoint
		}
		s.metrics.JobsRetried.Add(1)
		time.Sleep(s.cfg.RetryBackoff)
	}

	// On an engine panic, write the repro artifact before taking the
	// service lock: artifact IO must not stall job polling.
	ee, _ := core.AsEngineError(err)
	artifact := ""
	if ee != nil {
		s.metrics.EngineErrors.Add(1)
		if s.crashes != nil {
			s.crashMu.Lock()
			path, werr := s.crashes.write(s.buildArtifact(j, ee))
			s.crashMu.Unlock()
			if werr == nil {
				artifact = path
				s.metrics.CrashArtifacts.Add(1)
			}
		}
	}

	// A cross-backend disagreement likewise writes its repro — both
	// verdicts plus the program — before the lock.
	var dis *disagreementError
	quarantine := ""
	if errors.As(err, &dis) && s.quarantines != nil {
		s.crashMu.Lock()
		path, werr := s.quarantines.writeJSON(quarantineKind, j.fingerprint, j.id, s.buildQuarantine(j, dis.out))
		s.crashMu.Unlock()
		if werr == nil {
			quarantine = path
			s.metrics.QuarantineArtifacts.Add(1)
		}
	}

	cached := false
	s.mu.Lock()
	j.finished = time.Now()
	j.engineErr = ee
	j.artifact = artifact
	switch {
	case dis != nil:
		// Two engines both claim exhaustive coverage and disagree: at
		// least one is wrong, and the service cannot tell which. The job
		// fails with its own state, neither verdict is served or cached,
		// and the fingerprint trips toward the breaker exactly like an
		// engine crash — a program that splits the engines is poisoned
		// until a human reads the quarantine artifact.
		j.state = StateQuarantined
		j.errMsg = err.Error()
		j.quarantine = quarantine
		s.metrics.JobsQuarantined.Add(1)
		s.breaker.record(j.fingerprint, time.Now())
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
		s.metrics.JobsFailed.Add(1)
		if ee != nil {
			s.breaker.record(j.fingerprint, time.Now())
		}
	case j.userCancel:
		j.state = StateCanceled
		j.result = res
		s.metrics.JobsCanceled.Add(1)
		s.metrics.addStats(&res.Stats)
	default:
		j.state = StateDone
		j.result = res
		s.metrics.JobsCompleted.Add(1)
		s.metrics.addStats(&res.Stats)
		// A clean run closes the fingerprint's breaker — in particular the
		// half-open probe that admitted this job after a cooldown.
		s.breaker.succeed(j.fingerprint)
		if res.Interrupted {
			s.metrics.JobsInterrupted.Add(1)
		} else if res.TruncatedReason != core.TruncMemoryBudget {
			// Execution/event-capped results are keyed by their bounds and
			// deterministic, so they cache; a memory-budget truncation
			// depends on transient machine state and must never be served
			// to a later submitter.
			s.cache.put(j.cacheKey, res)
			cached = true
		}
	}
	state := j.state
	s.recordFinishedLocked(j)
	s.mu.Unlock()

	// Durability tail, outside s.mu: retire the job from the journal and
	// persist the verdict cache when it gained an entry.
	if s.journal != nil {
		s.journal.done(j.id, state)
		if cached {
			s.persistVerdicts()
		}
	}
}

// observeProgress publishes one exploration snapshot for job j: the job
// record gets it (job polls and the /progress endpoint serve it), waiters
// are woken, and the service-wide distributions absorb it.
func (s *Service) observeProgress(j *Job, snap obs.ProgressSnapshot) {
	s.metrics.ObserveProgress(snap)
	s.mu.Lock()
	cp := snap
	j.progressSeq++
	cp.Seq = j.progressSeq
	j.progress = &cp
	j.notifyProgressLocked()
	s.mu.Unlock()
}

// WaitProgress blocks until job id has a progress snapshot newer than
// afterSeq, reaches a terminal state, or ctx expires — whichever first —
// and returns the job's current view (ok=false: no such job). This is the
// long-poll primitive behind GET /v1/jobs/{id}/progress: a client chains
// calls, passing the last snapshot's Seq, and observes every cadence tick
// without busy-polling.
func (s *Service) WaitProgress(ctx context.Context, id string, afterSeq int) (JobView, bool) {
	for {
		s.mu.Lock()
		j, ok := s.jobs[id]
		if !ok {
			s.mu.Unlock()
			return JobView{}, false
		}
		if j.state.Terminal() || (j.progress != nil && j.progress.Seq > afterSeq) {
			view := j.view()
			s.mu.Unlock()
			return view, true
		}
		if j.progressCh == nil {
			j.progressCh = make(chan struct{})
		}
		ch := j.progressCh
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			s.mu.Lock()
			view := j.view()
			s.mu.Unlock()
			return view, true
		}
	}
}

// persistVerdicts writes the verdict cache to disk (atomic replace). A
// no-op once killForTest has fired: the simulated-dead process must not
// keep writing durable state.
func (s *Service) persistVerdicts() {
	if s.cfg.CacheSize <= 0 || s.killed.Load() {
		return
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.killed.Load() {
		return
	}
	saveVerdicts(s.cfg.JournalDir, s.cache) //nolint:errcheck // cache persistence is best effort
}

// killForTest simulates the process dying for restart tests: the journal
// freezes on disk and verdict persistence stops, exactly as if the
// process had been SIGKILLed at this instant. In-memory state keeps
// running (the test still has to Shutdown), but nothing durable changes.
func (s *Service) killForTest() {
	s.killed.Store(true)
	if s.journal != nil {
		s.journal.kill()
	}
}

// buildArtifact assembles the crash repro for a failed job.
func (s *Service) buildArtifact(j *Job, ee *core.EngineError) *CrashArtifact {
	return &CrashArtifact{
		Schema:        core.SchemaVersion,
		JobID:         j.id,
		Time:          time.Now().UTC(),
		Program:       j.req.Program.Name,
		Fingerprint:   j.fingerprint,
		Model:         j.req.Model,
		Source:        j.req.Source,
		Test:          j.req.Test,
		ProgramDump:   j.req.Program.String(),
		MaxExecutions: j.req.MaxExecutions,
		MaxEvents:     j.req.MaxEvents,
		MemoryBudget:  j.req.MemoryBudget,
		Workers:       j.req.Workers,
		Symmetry:      j.req.Symmetry,
		TimeoutMS:     j.req.Timeout.Milliseconds(),
		Attempts:      j.attempts,
		Panic:         fmt.Sprint(ee.PanicValue),
		Stack:         ee.Stack,
		Stats:         ee.Stats,
	}
}

// CrashArtifacts reports the artifact files resident in the crash
// directory (a point-in-time gauge for /metrics).
func (s *Service) CrashArtifacts() int {
	if s.crashes == nil {
		return 0
	}
	s.crashMu.Lock()
	defer s.crashMu.Unlock()
	return s.crashes.count()
}

// recordFinishedLocked appends j to the finished history and evicts the
// oldest finished job records beyond the configured retention. It is
// called at every terminal transition, which makes it the single point
// where progress long-pollers are woken for the last time. Callers hold
// s.mu.
func (s *Service) recordFinishedLocked(j *Job) {
	j.notifyProgressLocked()
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.JobHistory {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// Shutdown stops accepting jobs, waits for the queue to drain and the
// workers to finish, then flushes the verdict cache and closes the
// journal. If ctx expires first, every queued and running job is
// cancelled (their partial results remain pollable; a cancelled running
// job's last journaled checkpoint stays live, so the next start resumes
// it) and Shutdown returns ctx.Err after the workers exit.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	if first {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()
	if first {
		// The replay goroutine may still be feeding the queue; closing
		// drainCh unblocks it, and the queue closes only after it exits —
		// never close a channel with a live sender.
		s.replay.Wait()
		close(s.queue)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	err := func() error {
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			s.mu.Lock()
			for _, j := range s.jobs {
				if j.state == StateQueued {
					j.state = StateCanceled
					j.userCancel = true
					j.finished = time.Now()
					s.metrics.JobsCanceled.Add(1)
					s.recordFinishedLocked(j)
				} else if j.cancel != nil {
					j.userCancel = true
					j.cancel()
				}
			}
			s.mu.Unlock()
			<-done
			return ctx.Err()
		}
	}()
	if first && s.journal != nil {
		if !s.killed.Load() {
			s.persistVerdicts()
		}
		s.journal.close()
	}
	return err
}
