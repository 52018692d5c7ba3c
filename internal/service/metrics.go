package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hmc/internal/core"
	"hmc/internal/obs"
)

// Metrics holds the service's monotonic counters, updated with atomics so
// the /metrics endpoint never contends with running explorations. Job
// counters track the queue lifecycle; explorer counters accumulate the
// Stats of every finished (non-cached) job, so the daemon exports the same
// numbers the paper's tables report, summed over its lifetime.
type Metrics struct {
	JobsSubmitted   atomic.Int64 // accepted submissions (including cache hits)
	JobsRejected    atomic.Int64 // refused: queue full or draining
	JobsCompleted   atomic.Int64 // explorations that ran to a result
	JobsFailed      atomic.Int64 // explorations that returned an error
	JobsCanceled    atomic.Int64 // canceled by the client
	JobsInterrupted atomic.Int64 // stopped by a deadline, partial result
	CacheHits       atomic.Int64
	CacheMisses     atomic.Int64
	InFlight        atomic.Int64 // currently running explorations (gauge)

	VetFindings     atomic.Int64 // static-analysis findings attached to submissions
	EngineErrors    atomic.Int64 // engine panics contained as EngineError
	CrashArtifacts  atomic.Int64 // crash repro files written
	JobsRetried     atomic.Int64 // re-runs after a memory-budget truncation
	BreakerRejected atomic.Int64 // submissions refused by the circuit breaker

	// Portfolio counters (internal/backend): backend runs launched in
	// races, races won, runs cut off by deadline or grace cancellation,
	// confirmed cross-backend disagreements, jobs quarantined by one, and
	// disagreement repro artifacts written.
	BackendRuns          atomic.Int64
	BackendWins          atomic.Int64
	BackendTimeouts      atomic.Int64
	BackendDisagreements atomic.Int64
	JobsQuarantined      atomic.Int64
	QuarantineArtifacts  atomic.Int64

	JournalWriteErrors atomic.Int64 // job-store write/fsync failures survived in degraded mode

	JournalReplayedJobs   atomic.Int64 // incomplete jobs re-enqueued from the job store on startup
	JournalCheckpoints    atomic.Int64 // periodic exploration checkpoints stored
	JournalSkippedRecords atomic.Int64 // bad or left-over job files and legacy journal lines dropped on startup
	ResumeSavedExecs      atomic.Int64 // executions restored from checkpoints instead of re-explored
	VerdictsReloaded      atomic.Int64 // cache entries restored from verdicts.json on startup

	Executions        atomic.Int64
	ExistsCount       atomic.Int64
	Blocked           atomic.Int64
	States            atomic.Int64
	MemoHits          atomic.Int64
	RevisitsTried     atomic.Int64
	RevisitsTaken     atomic.Int64
	ConsistencyChecks atomic.Int64

	HTTPEncodeErrors atomic.Int64 // JSON responses whose marshal failed (500 fallback served)
	CacheEvictions   atomic.Int64 // verdict-cache entries dropped by LRU pressure

	// Sampled phase-time totals (nanoseconds) accumulated from each
	// finished job's final progress snapshot — where exploration wall-clock
	// goes, fleet-wide.
	PhaseInterpNS      atomic.Int64
	PhaseConsistencyNS atomic.Int64
	PhaseRevisitNS     atomic.Int64

	// Distributions, fed by the per-job progress sink: overall
	// executions/sec per finished job, frontier width per snapshot, and the
	// mean consistency-check latency per finished job.
	JobExecRate             histogram
	WaveSize                histogram
	ConsistencyCheckSeconds histogram

	// backendLat is the per-backend portfolio run-latency distribution,
	// keyed by backend name and rendered with a backend label. Guarded by
	// backendLatMu; histograms are created on first observation.
	backendLatMu sync.Mutex
	backendLat   map[string]*histogram

	histOnce sync.Once
}

// Histogram bucket bounds. Exec rates span toy litmus tests (tens/sec
// under a deliberate deadline) to saturated exploration (hundreds of
// thousands/sec); wave sizes are frontier widths between drains;
// consistency checks are microsecond-scale graph traversals.
var (
	execRateBounds = []float64{10, 100, 1e3, 1e4, 5e4, 1e5, 5e5, 1e6}
	waveSizeBounds = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384}
	checkSecBounds = []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}
	// Backend races span sub-millisecond oracle runs on toy litmus tests
	// to DFS anchors grinding for minutes.
	backendLatBounds = []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60, 300}
)

// observeBackendLatency folds one portfolio run's wall-clock into the
// backend's latency distribution.
func (m *Metrics) observeBackendLatency(name string, seconds float64) {
	m.backendLatMu.Lock()
	defer m.backendLatMu.Unlock()
	if m.backendLat == nil {
		m.backendLat = map[string]*histogram{}
	}
	h := m.backendLat[name]
	if h == nil {
		h = &histogram{}
		h.init(backendLatBounds)
		m.backendLat[name] = h
	}
	h.observe(seconds)
}

// ensureHistograms sets the bucket bounds exactly once; callers invoke it
// before any observe or export so the zero-valued Metrics struct keeps
// working without a constructor.
func (m *Metrics) ensureHistograms() {
	m.histOnce.Do(func() {
		m.JobExecRate.init(execRateBounds)
		m.WaveSize.init(waveSizeBounds)
		m.ConsistencyCheckSeconds.init(checkSecBounds)
	})
}

// ObserveProgress folds one progress snapshot into the service-wide
// distributions: every snapshot contributes its frontier width, and the
// final snapshot of a run contributes the job's overall execution rate,
// phase-time totals and mean consistency-check latency.
func (m *Metrics) ObserveProgress(snap obs.ProgressSnapshot) {
	m.ensureHistograms()
	m.WaveSize.observe(float64(snap.Frontier))
	if !snap.Final {
		return
	}
	m.JobExecRate.observe(snap.ExecsPerSec)
	ph := snap.Phases
	m.PhaseInterpNS.Add(int64(ph.Interp))
	m.PhaseConsistencyNS.Add(int64(ph.Consistency))
	m.PhaseRevisitNS.Add(int64(ph.Revisit))
	if ph.ConsistencyCalls > 0 && ph.Consistency > 0 {
		mean := time.Duration(int64(ph.Consistency) / ph.ConsistencyCalls)
		m.ConsistencyCheckSeconds.observe(mean.Seconds())
	}
}

// histogram is a minimal fixed-bucket Prometheus histogram, stdlib only.
// Observations land at wave cadence (not per event), so one mutex is
// plenty; the zero value is unusable until init sets the bounds.
type histogram struct {
	mu     sync.Mutex
	bounds []float64 // bucket upper bounds, ascending; +Inf is implicit
	counts []int64   // len(bounds)+1; the last slot is the +Inf bucket
	sum    float64
}

func (h *histogram) init(bounds []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.bounds = bounds
	h.counts = make([]int64, len(bounds)+1)
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.counts == nil {
		return // bounds never set: drop rather than panic
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
}

// write renders the histogram in the Prometheus text format (cumulative
// le buckets, sum, count).
func (h *histogram) write(w io.Writer, name, help string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	if h.counts != nil {
		cum += h.counts[len(h.bounds)]
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

// writeLabeled renders the histogram's bucket/sum/count lines with an
// extra label pair; the caller emits the family's HELP/TYPE header once.
func (h *histogram) writeLabeled(w io.Writer, name, label string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s,le=\"%g\"} %d\n", name, label, b, cum)
	}
	if h.counts != nil {
		cum += h.counts[len(h.bounds)]
	}
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, label, cum)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, label, h.sum)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, label, cum)
}

// CacheHitRate returns hits / (hits+misses), or 0 before any lookup.
func (m *Metrics) CacheHitRate() float64 {
	h, mi := m.CacheHits.Load(), m.CacheMisses.Load()
	if h+mi == 0 {
		return 0
	}
	return float64(h) / float64(h+mi)
}

// writePrometheus renders the counters in the Prometheus text exposition
// format (version 0.0.4), stdlib only. queueDepth, cacheEntries, cacheCap
// and crashResident are point-in-time gauges supplied by the service.
func (m *Metrics) writePrometheus(w io.Writer, queueDepth, cacheEntries, cacheCap, crashResident int, ready bool) {
	m.ensureHistograms()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counterF := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	gaugeI := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gaugeF := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("hmcd_jobs_submitted_total", "Jobs accepted for checking.", m.JobsSubmitted.Load())
	counter("hmcd_jobs_rejected_total", "Jobs refused (queue full or draining).", m.JobsRejected.Load())
	counter("hmcd_jobs_completed_total", "Explorations that produced a result.", m.JobsCompleted.Load())
	counter("hmcd_jobs_failed_total", "Explorations that returned an error.", m.JobsFailed.Load())
	counter("hmcd_jobs_canceled_total", "Jobs canceled by the client.", m.JobsCanceled.Load())
	counter("hmcd_jobs_interrupted_total", "Jobs stopped by a deadline with partial results.", m.JobsInterrupted.Load())
	counter("hmcd_vet_findings_total", "Static-analysis findings attached to accepted submissions.", m.VetFindings.Load())
	counter("hmcd_engine_errors_total", "Engine panics contained as structured errors.", m.EngineErrors.Load())
	counter("hmcd_crash_artifacts_total", "Crash repro artifacts written.", m.CrashArtifacts.Load())
	counter("hmcd_jobs_retried_total", "Job re-runs after a transient memory-budget truncation.", m.JobsRetried.Load())
	counter("hmcd_breaker_rejected_total", "Submissions refused by the per-program circuit breaker.", m.BreakerRejected.Load())
	counter("hmcd_backend_runs_total", "Portfolio backend runs launched in verdict races.", m.BackendRuns.Load())
	counter("hmcd_backend_wins_total", "Portfolio races won (first exhaustive verdict).", m.BackendWins.Load())
	counter("hmcd_backend_timeouts_total", "Portfolio backend runs cut off by deadline or grace cancellation.", m.BackendTimeouts.Load())
	counter("hmcd_backend_disagreements_total", "Confirmed cross-backend verdict disagreements.", m.BackendDisagreements.Load())
	counter("hmcd_jobs_quarantined_total", "Jobs failed with a quarantined cross-backend disagreement.", m.JobsQuarantined.Load())
	counter("hmcd_quarantine_artifacts_total", "Disagreement repro artifacts written.", m.QuarantineArtifacts.Load())
	m.writeBackendLatencies(w)
	counter("hmcd_journal_write_errors_total", "Job-store write or fsync failures survived in degraded mode.", m.JournalWriteErrors.Load())
	counter("hmcd_journal_replayed_jobs_total", "Incomplete jobs re-enqueued from the job store on startup.", m.JournalReplayedJobs.Load())
	counter("hmcd_journal_checkpoints_total", "Periodic exploration checkpoints stored.", m.JournalCheckpoints.Load())
	counter("hmcd_journal_skipped_records_total", "Undecodable, wrong-schema or left-over job files and torn legacy journal lines dropped on startup.", m.JournalSkippedRecords.Load())
	counter("hmcd_resume_saved_execs_total", "Executions restored from checkpoints instead of re-explored.", m.ResumeSavedExecs.Load())
	counter("hmcd_verdicts_reloaded_total", "Verdict cache entries restored from disk on startup.", m.VerdictsReloaded.Load())
	readyV := int64(0)
	if ready {
		readyV = 1
	}
	gaugeI("hmcd_ready", "1 once stored jobs are re-enqueued and the service accepts work.", readyV)
	gaugeI("hmcd_crash_artifacts_resident", "Crash artifacts currently on disk.", int64(crashResident))
	counter("hmcd_cache_hits_total", "Verdict cache hits.", m.CacheHits.Load())
	counter("hmcd_cache_misses_total", "Verdict cache misses.", m.CacheMisses.Load())
	gaugeF("hmcd_cache_hit_rate", "Verdict cache hit rate since start.", m.CacheHitRate())
	gaugeI("hmcd_cache_entries", "Verdict cache entries resident.", int64(cacheEntries))
	gaugeI("hmcd_cache_capacity", "Verdict cache entry bound.", int64(cacheCap))
	counter("hmcd_cache_evictions_total", "Verdict cache entries dropped by LRU pressure.", m.CacheEvictions.Load())
	counter("hmcd_http_encode_errors_total", "JSON responses whose encoding failed (500 fallback served).", m.HTTPEncodeErrors.Load())
	gaugeI("hmcd_queue_depth", "Jobs waiting in the queue.", int64(queueDepth))
	gaugeI("hmcd_jobs_inflight", "Explorations currently running.", m.InFlight.Load())
	counter("hmcd_executions_total", "Complete consistent executions explored.", m.Executions.Load())
	counter("hmcd_exists_total", "Executions satisfying their Exists clause.", m.ExistsCount.Load())
	counter("hmcd_blocked_total", "Maximal blocked executions.", m.Blocked.Load())
	counter("hmcd_states_total", "Distinct exploration states visited.", m.States.Load())
	counter("hmcd_memo_hits_total", "States pruned by the exploration memo.", m.MemoHits.Load())
	counter("hmcd_revisits_tried_total", "Backward revisit candidates considered.", m.RevisitsTried.Load())
	counter("hmcd_revisits_taken_total", "Backward revisits taken.", m.RevisitsTaken.Load())
	counter("hmcd_consistency_checks_total", "Memory-model consistency checks.", m.ConsistencyChecks.Load())
	counterF("hmcd_phase_interp_seconds_total", "Sampled interpretation time across finished jobs.",
		time.Duration(m.PhaseInterpNS.Load()).Seconds())
	counterF("hmcd_phase_consistency_seconds_total", "Sampled consistency-check time across finished jobs.",
		time.Duration(m.PhaseConsistencyNS.Load()).Seconds())
	counterF("hmcd_phase_revisit_seconds_total", "Sampled revisit-machinery time across finished jobs.",
		time.Duration(m.PhaseRevisitNS.Load()).Seconds())
	m.JobExecRate.write(w, "hmcd_job_exec_rate", "Overall executions/sec of each finished job.")
	m.WaveSize.write(w, "hmcd_wave_size", "Frontier width at each progress snapshot.")
	m.ConsistencyCheckSeconds.write(w, "hmcd_consistency_check_seconds", "Mean consistency-check latency of each finished job.")
}

// writeBackendLatencies renders the per-backend latency distributions as
// one labeled histogram family, backends in sorted order so the exposition
// is deterministic.
func (m *Metrics) writeBackendLatencies(w io.Writer) {
	m.backendLatMu.Lock()
	defer m.backendLatMu.Unlock()
	if len(m.backendLat) == 0 {
		return
	}
	names := make([]string, 0, len(m.backendLat))
	for name := range m.backendLat {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# HELP hmcd_backend_latency_seconds Per-backend portfolio run latency.\n# TYPE hmcd_backend_latency_seconds histogram\n")
	for _, name := range names {
		m.backendLat[name].writeLabeled(w, "hmcd_backend_latency_seconds", fmt.Sprintf("backend=%q", name))
	}
}

// addStats folds one finished exploration's counters into the totals.
func (m *Metrics) addStats(s *core.Stats) {
	m.Executions.Add(int64(s.Executions))
	m.ExistsCount.Add(int64(s.ExistsCount))
	m.Blocked.Add(int64(s.Blocked))
	m.States.Add(int64(s.States))
	m.MemoHits.Add(int64(s.MemoHits))
	m.RevisitsTried.Add(int64(s.RevisitsTried))
	m.RevisitsTaken.Add(int64(s.RevisitsTaken))
	m.ConsistencyChecks.Add(int64(s.ConsistencyChecks))
}
