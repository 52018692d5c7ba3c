package core

import (
	"fmt"

	"hmc/internal/analyze"
	"hmc/internal/eg"
	"hmc/internal/interp"
	"hmc/internal/prog"
)

// This file hosts the exploration hooks fed by the static analysis pass
// (internal/analyze): count-preserving pruning (Options.StaticAnalysis)
// and the dynamic-vs-static dependency sanitizer (Options.CheckDeps).
//
// Every pruning rule below skips work that the unpruned explorer would
// provably discard itself, so the set of consistent executions — and all
// of Executions/ExistsCount/Blocked/Errors — is unchanged. The rules rely
// only on the coherence axiom (SC-per-location), which every model in the
// registry includes:
//
//   - thread-local location (one accessor thread): all of l's events in
//     any graph belong to one thread, so co order equals program order.
//     A new read's only coherent rf source is the co-maximal write (any
//     other choice creates a po-loc;rf;fr cycle), and a backward revisit
//     would rebind a po-earlier same-thread read to the new write (an
//     rf;po-loc cycle) — both are tried and rejected by the unpruned
//     explorer, so skipping them is free.
//   - single-writer location: all non-init writes share a thread, so a
//     new write's only coherent placement is co-maximal; the earlier
//     positions would invert same-thread coherence.
//   - never-read location (statically-dead stores): no read of l can
//     exist in any graph, so the backward-revisit scan after adding a
//     write to l is vacuous. The write event itself is still added — the
//     program's Exists predicate is an opaque closure that may observe
//     l's final value, so "eliding a dead store" means eliding its
//     branching cost, never the event.

// maxDepViolationDetails caps the per-run sample of CheckDeps failures
// kept in Result.DepViolationDetails (the count is unbounded).
const maxDepViolationDetails = 8

// analyzeIfNeeded runs the static pass when either consumer option asks
// for it.
func analyzeIfNeeded(p *prog.Program, opts Options) *analyze.Result {
	if !opts.StaticAnalysis && !opts.CheckDeps {
		return nil
	}
	return analyze.Analyze(p)
}

// pruneRF reports that reads of loc should skip all non-co-maximal rf
// candidates.
func (e *explorer) pruneRF(loc eg.Loc) bool {
	return e.opts.StaticAnalysis && e.static != nil && e.static.Foot.ThreadLocal(loc)
}

// pruneCo reports that writes to loc should be placed co-maximally only.
func (e *explorer) pruneCo(loc eg.Loc) bool {
	if !e.opts.StaticAnalysis || e.static == nil {
		return false
	}
	_, ok := e.static.Foot.SingleWriter(loc)
	return ok
}

// pruneRevisitScan reports that the backward-revisit scan after a write
// to loc is provably fruitless.
func (e *explorer) pruneRevisitScan(loc eg.Loc) bool {
	if !e.opts.StaticAnalysis || e.static == nil {
		return false
	}
	return e.static.Foot.ThreadLocal(loc) || e.static.Foot.NeverRead(loc)
}

// verifyDeps checks one action's dynamic taints against the static
// dependency sets — the CheckDeps sanitizer — and describes a violation
// ("" when there is none). Violations are counted (and sampled) but do not
// stop exploration: the sanitizer observes, the tests assert the count
// stays zero.
func (e *explorer) verifyDeps(g *eg.Graph, t int, a interp.Action) string {
	err := e.static.CheckDeps(t, a.PC, a.Addr, a.Data, a.Ctrl, func(id eg.EvID) int {
		return g.At(id).PC
	})
	if err == nil {
		return ""
	}
	return fmt.Sprintf("%s (action %v)", err, a.Kind)
}
