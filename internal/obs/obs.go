// Package obs is the exploration observability layer: progress snapshots,
// sampled phase timers and a structured JSONL exploration trace. It is
// deliberately stdlib-only and dependency-free so that internal/core can
// import it without cycles, and internal/service can reuse the same types
// on the wire.
//
// The package defines *data*, not policy: core decides when a snapshot is
// taken (at a pause, with every exploration driver parked between two
// states, where the checkpointer already synchronizes), the service and
// CLIs decide where it goes. Everything here is safe for concurrent use — timers are atomic,
// the tracer serializes writes — because exploration workers touch these
// objects from many goroutines.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// PhaseTimes is the sampled phase-timing breakdown of an exploration: an
// estimate of where the wall-clock time went, split into the three
// dominant kinds of work. Durations are extrapolated (mean of sampled
// calls × total calls), not exact sums — see PhaseTimer.
type PhaseTimes struct {
	// Interp is interpretation time: replaying threads to find each
	// state's next actions.
	Interp time.Duration `json:"interp_ns"`
	// Consistency is memory-model consistency-check time.
	Consistency time.Duration `json:"consistency_ns"`
	// Revisit is backward-revisit machinery time: keep-set computation,
	// taint pruning, graph restriction and replay repair (the nested
	// exploration a taken revisit triggers is *not* attributed here).
	Revisit time.Duration `json:"revisit_ns"`
	// Call counts per phase (exact, not sampled).
	InterpCalls      int64 `json:"interp_calls"`
	ConsistencyCalls int64 `json:"consistency_calls"`
	RevisitCalls     int64 `json:"revisit_calls"`
}

// ProgressSnapshot is one race-free observation of a running exploration,
// taken at a pause with every exploration driver parked. Counters are cumulative
// and monotone across the snapshots of one run; the final snapshot of a
// run (Final set) reports exactly the stats of its Result.
type ProgressSnapshot struct {
	// Seq numbers the snapshots of one run from 1; the final snapshot has
	// the highest Seq.
	Seq int `json:"seq"`
	// Wave counts the pauses served so far (checkpoint, progress or end),
	// each with every driver parked between two states.
	Wave int `json:"wave"`

	Executions        int `json:"executions"`
	Blocked           int `json:"blocked"`
	States            int `json:"states"`
	MemoHits          int `json:"memo_hits"`
	MemoSize          int `json:"memo_size"`
	Frontier          int `json:"frontier"`
	RevisitsTried     int `json:"revisits_tried"`
	RevisitsTaken     int `json:"revisits_taken"`
	ConsistencyChecks int `json:"consistency_checks"`
	StaticPrunedRf    int `json:"static_pruned_rf,omitempty"`
	StaticPrunedCo    int `json:"static_pruned_co,omitempty"`
	StaticPrunedScans int `json:"static_pruned_scans,omitempty"`

	// Elapsed is wall-clock time since exploration began; ExecsPerSec and
	// ChecksPerSec are overall rates (always finite, 0 when unknown).
	Elapsed      time.Duration `json:"elapsed_ns"`
	ExecsPerSec  float64       `json:"execs_per_sec"`
	ChecksPerSec float64       `json:"checks_per_sec"`
	// EstimateMean, when positive, is the predicted total number of
	// executions (core.Estimate) the ETA is derived from; ETA is zero when
	// no estimate is available, the rate is still zero, or the snapshot is
	// final.
	EstimateMean float64       `json:"estimate_mean,omitempty"`
	ETA          time.Duration `json:"eta_ns,omitempty"`

	Phases PhaseTimes `json:"phases"`
	// Final marks the last snapshot of a run: the run has stopped
	// (exhausted, truncated or interrupted) and the counters equal the
	// Result's.
	Final bool `json:"final,omitempty"`
}

// Rate returns n per second over elapsed, guarded against zero and
// non-finite results.
func Rate(n int, elapsed time.Duration) float64 {
	if n <= 0 || elapsed <= 0 {
		return 0
	}
	return Finite(float64(n) / elapsed.Seconds())
}

// ETA predicts time remaining until estimateMean executions at the given
// rate, zero when unknowable (no estimate, zero rate, or already past the
// estimate — the estimator is an upper bound, not a promise).
func ETA(estimateMean float64, done int, rate float64) time.Duration {
	if estimateMean <= 0 || rate <= 0 || float64(done) >= estimateMean {
		return 0
	}
	secs := (estimateMean - float64(done)) / rate
	if math.IsNaN(secs) || math.IsInf(secs, 0) || secs > math.MaxInt64/float64(time.Second) {
		return 0
	}
	return time.Duration(secs * float64(time.Second))
}

// Finite clamps NaN and ±Inf to 0, keeping every derived float safe for
// JSON encoding (encoding/json refuses non-finite values).
func Finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// sampleEvery is the phase-timer sampling period: one in this many calls
// pays for a time.Now() pair, the rest only an atomic increment. With
// call counts in the millions the extrapolated estimate converges while
// the overhead stays far under the instrumentation budget (EXPERIMENTS.md
// T15 holds it to <5% end to end).
const sampleEvery = 16

// PhaseTimer measures one phase by sampling: every call is counted, every
// sampleEvery-th call is timed, and Estimate extrapolates the total as
// mean-sampled-duration × calls. All methods are safe on a nil receiver
// (a disabled timer) and for concurrent use.
type PhaseTimer struct {
	calls   atomic.Int64
	sampled atomic.Int64
	ns      atomic.Int64
}

// Start begins a measurement. It returns the zero time when this call is
// not sampled (or the timer is nil); pass the value to Stop either way.
func (t *PhaseTimer) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	if t.calls.Add(1)%sampleEvery != 1 {
		return time.Time{}
	}
	return time.Now()
}

// Stop completes a measurement begun by Start (a no-op for unsampled
// calls).
func (t *PhaseTimer) Stop(start time.Time) {
	if t == nil || start.IsZero() {
		return
	}
	t.sampled.Add(1)
	t.ns.Add(time.Since(start).Nanoseconds())
}

// Estimate returns the extrapolated total duration and the exact call
// count.
func (t *PhaseTimer) Estimate() (time.Duration, int64) {
	if t == nil {
		return 0, 0
	}
	calls := t.calls.Load()
	sampled := t.sampled.Load()
	if sampled == 0 || calls == 0 {
		return 0, calls
	}
	mean := float64(t.ns.Load()) / float64(sampled)
	return time.Duration(mean * float64(calls)), calls
}
