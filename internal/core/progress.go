package core

import (
	"fmt"
	"time"

	"hmc/internal/eg"
	"hmc/internal/obs"
)

// This file threads the observability layer (internal/obs) through the
// explorer: periodic progress snapshots, sampled phase timers and the
// structured exploration trace.
//
// Snapshots use the same pause as checkpoints (checkpoint.go): the run's
// watcher goroutine ticks at the snapshot cadence and requests a progress
// pause, every driver parks its stack between two states, and the pause
// loop — nothing in flight — reads the counters race-free, emits the
// snapshot and resumes from the parked frontier. Observation therefore
// never changes *what* is explored, only inserts pauses. A pause asked for
// progress emits a snapshot and nothing else; when a checkpoint falls due
// at the same pause, one pause serves both. Progress and Trace are
// transient knobs like Workers: they are excluded from the checkpoint
// options signature, so observed and unobserved legs of a resume chain
// interoperate.

// DefaultProgressEvery is the snapshot cadence used when
// ProgressOptions.Every is unset; EXPERIMENTS.md T15 bounds the whole
// instrumentation overhead at this cadence to <5%.
const DefaultProgressEvery = time.Second

// ProgressOptions configures periodic progress snapshots
// (Options.Progress).
type ProgressOptions struct {
	// Every is the wall-clock snapshot cadence (≤0: DefaultProgressEvery):
	// a ticker requests a pause every Every, and the snapshot lands once
	// every driver has parked, before its next state. Ticks that fall
	// while a pause is pending merge into it.
	Every time.Duration
	// Sink receives each snapshot. It runs on the exploration goroutine
	// during a pause — every driver parked — so it may read the snapshot
	// freely without racing the explorer; it should return quickly, since
	// exploration is paused for its duration. The final snapshot of the
	// run (Final set, counters equal to the Result) is always delivered,
	// even when the run is too short for a periodic one. A nil Sink
	// disables progress entirely.
	Sink func(obs.ProgressSnapshot)
	// EstimateMean, when positive, is a predicted total execution count
	// (typically core.Estimate's Mean) used to derive the snapshot ETA.
	EstimateMean float64
}

// progressState is the explorer's progress bookkeeping. seq and emission
// run only on the Explore goroutine; the watcher reads every.
type progressState struct {
	opts  ProgressOptions
	every time.Duration
	start time.Time
	seq   int
}

// initObs sets up progress, trace and the phase timers from the options.
func (e *explorer) initObs() {
	if p := e.opts.Progress; p != nil && p.Sink != nil {
		every := p.Every
		if every <= 0 {
			every = DefaultProgressEvery
		}
		e.prog = &progressState{opts: *p, every: every, start: time.Now()} //hmc:nondet(progress timestamps describe the run, they never feed counters or keys)
	}
	e.tracer = e.opts.Trace
	// Only progress snapshots read the phase timers, so a trace-only run
	// leaves them nil (their methods no-op on nil).
	if e.prog != nil {
		e.tInterp = &obs.PhaseTimer{}
		e.tConsist = &obs.PhaseTimer{}
		e.tRevisit = &obs.PhaseTimer{}
	}
}

// snapshotProgress builds one snapshot from the parked explorer state.
// Called only on the Explore goroutine during a pause (or after the run).
func (e *explorer) snapshotProgress(frontier int, final bool) obs.ProgressSnapshot {
	e.sh.mu.Lock()
	s := e.sh.res.Stats
	memo := len(e.sh.memo)
	e.sh.mu.Unlock()
	p := e.prog
	p.seq++
	elapsed := time.Since(p.start)
	snap := obs.ProgressSnapshot{
		Seq:               p.seq,
		Wave:              e.wave,
		Executions:        s.Executions,
		Blocked:           s.Blocked,
		States:            s.States,
		MemoHits:          s.MemoHits,
		MemoSize:          memo,
		Frontier:          frontier,
		RevisitsTried:     s.RevisitsTried,
		RevisitsTaken:     s.RevisitsTaken,
		ConsistencyChecks: s.ConsistencyChecks,
		StaticPrunedRf:    s.StaticPrunedRf,
		StaticPrunedCo:    s.StaticPrunedCo,
		StaticPrunedScans: s.StaticPrunedScans,
		Elapsed:           elapsed,
		ExecsPerSec:       obs.Rate(s.Executions, elapsed),
		ChecksPerSec:      obs.Rate(s.ConsistencyChecks, elapsed),
		EstimateMean:      obs.Finite(p.opts.EstimateMean),
		Phases:            e.phaseTimes(),
		Final:             final,
	}
	if !final {
		snap.ETA = obs.ETA(snap.EstimateMean, s.Executions, snap.ExecsPerSec)
	}
	return snap
}

// emitProgress delivers one snapshot to the sink (and the trace). The
// sink runs under the panic guard: a panicking sink becomes the run's
// EngineError, like any other callback.
func (e *explorer) emitProgress(frontier int, final bool) {
	if e.prog == nil {
		return
	}
	snap := e.snapshotProgress(frontier, final)
	e.tracer.Emit(obs.TraceEvent{Kind: "snapshot", Snapshot: &snap})
	e.guard(func() { e.prog.opts.Sink(snap) })
}

// phaseTimes assembles the sampled phase-timing breakdown.
func (e *explorer) phaseTimes() obs.PhaseTimes {
	it, ic := e.tInterp.Estimate()
	ct, cc := e.tConsist.Estimate()
	rt, rc := e.tRevisit.Estimate()
	return obs.PhaseTimes{
		Interp: it, InterpCalls: ic,
		Consistency: ct, ConsistencyCalls: cc,
		Revisit: rt, RevisitCalls: rc,
	}
}

// Trace emission helpers: nil-safe (Tracer.Emit no-ops on nil), so call
// sites stay unconditional.

func (e *explorer) traceWave(frontier int) {
	if e.tracer == nil {
		return
	}
	e.tracer.Emit(obs.TraceEvent{Kind: "wave", Wave: e.wave, Frontier: frontier})
}

func (e *explorer) traceRevisit(kind string, w, r eg.EvID) {
	if e.tracer == nil {
		return
	}
	e.tracer.Emit(obs.TraceEvent{Kind: kind, Write: evName(w), Read: evName(r)})
}

func (e *explorer) tracePrune(kind string, n int) {
	if e.tracer == nil {
		return
	}
	e.tracer.Emit(obs.TraceEvent{Kind: "prune", Prune: kind, Count: n})
}

// evName renders an event id for the trace ("T1.3": thread 1, index 3).
func evName(id eg.EvID) string {
	return fmt.Sprintf("T%d.%d", id.T, id.I)
}
