package core

import (
	"sync"

	"hmc/internal/eg"
	"hmc/internal/interp"
	"hmc/internal/prog"
)

// revisitsFrom attempts a backward revisit of every same-location read by
// the write w — which is already part of g, carrying its rf (if an update)
// and coherence position. Revisits are computed per forward branch of w's
// addition, so the kept prefix reflects exactly the bindings of this
// branch.
func (e *explorer) revisitsFrom(g *eg.Graph, w eg.EvID, loc eg.Loc) {
	var reads []eg.EvID
	g.ForEach(func(ev eg.Event) {
		if !ev.Kind.IsRead() || ev.Loc != loc || ev.ID == w {
			return
		}
		if src, ok := g.RF(ev.ID); ok && src == w {
			return // already bound to w (e.g. by a chain steal): a no-op
		}
		reads = append(reads, ev.ID)
	})
	for _, r := range reads {
		if e.stopped() {
			return
		}
		r := r
		e.fork(func() { e.revisit(g, w, r) })
	}
}

// revisit performs one backward revisit: the write w (already in g)
// becomes the rf source of the existing read r. The graph is restricted to
// the kept set
//
//	V = prefix(w) ∪ prefix(r) ∪ {r}
//
// where prefix is the downward closure under po-predecessors and rf edges
// — except r's own rf edge, which the revisit erases. The revisit goes
// through when
//
//  0. the rebind does not close a cycle r →(po-loc ∪ rf)+ w →rf r out of
//     edges repair cannot rewrite (closesCoherenceCycle): coherence rejects
//     such a graph under every model, so it is discarded before Restrict
//     and RepairAll;
//  1. re-replaying every thread against the rebound graph *repairs* it:
//     kept events whose data depends on r get their written values (and
//     CAS success/failure) patched, and no event diverges structurally.
//     This is the HMC dependency condition: independent po-successors of
//     r survive, which is what makes po∪rf-cyclic — load-buffering —
//     executions reachable under hardware memory models;
//  2. the resulting graph is consistent under the memory model;
//  3. the resulting exploration state is new (the explorer's state memo;
//     see explorer.visit). Different branches collapse into the same
//     revisited state because the revisit erases r's binding and deletes
//     events; the memo admits exactly one of them.
//
// When 0, 1 or 2 fails, a second phase deletes the kept events whose
// existence hangs on r (pruneTainted) and tries once more; a revisit with
// no kept control or address dependency has nothing to delete and is
// rejected without that retry.
func (e *explorer) revisit(g *eg.Graph, w, r eg.EvID) {
	if e.stopped() {
		return
	}
	e.count(func(s *Stats) { s.RevisitsTried++ })
	e.traceRevisit("revisit-tried", w, r)

	// Phase 1: keep everything the revisit does not causally erase and
	// rely on replay repair to patch values (value-preserving dependency
	// idioms survive this way).
	ts := e.tRevisit.Start()
	keep := keepSet(g, w, r)
	e.tRevisit.Stop(ts)
	if e.rebindAndVisit(g, keep, w, r) {
		return
	}
	// Phase 2: when replay diverged structurally — or the repaired graph
	// was inconsistent, which extra deletion may cure — events whose
	// existence hangs on r (control/address dependencies and their
	// dependents) are deleted and re-derived instead. The state memo
	// deduplicates any overlap between the phases. Without a kept control
	// or address dependency nothing is prunable, and phase 2 would rebind
	// the same keep set: the revisit is rejected outright.
	if !existenceDeps(g, keep, r) {
		e.count(func(s *Stats) { s.RevisitsRepairFail++ })
		return
	}
	ts2 := e.tRevisit.Start()
	n := len(keep)
	pruned := pruneTainted(g, keep, w, r)
	e.tRevisit.Stop(ts2)
	if !pruned || len(keep) == n {
		// Contradictory (w or r itself would go), or nothing prunable: the
		// divergence is a genuine value cycle (out-of-thin-air), which
		// constructive exploration rejects.
		e.count(func(s *Stats) { s.RevisitsRepairFail++ })
		return
	}
	if !e.rebindAndVisit(g, keep, w, r) {
		e.count(func(s *Stats) { s.RevisitsRepairFail++ })
	}
}

// rebindAndVisit restricts g to keep, rebinds r to w, repairs and — when
// replay converges — checks consistency and explores. It reports whether
// the rebound graph both repaired and passed the consistency check. A
// rebind that closes a coherence cycle is rejected before any of that.
func (e *explorer) rebindAndVisit(g *eg.Graph, keep map[eg.EvID]bool, w, r eg.EvID) bool {
	if e.opts.PorfOnlyRevisits {
		// Ablation: RC11-style revisits delete everything po-after r.
		// If a kept event is po-after r the revisit is skipped entirely
		// (under porf-acyclic models it would be inconsistent anyway).
		for ev := range keep { //hmc:nondet(existential scan: any po-after hit skips, order-invariant)
			if ev != w && ev.T == r.T && ev.I > r.I {
				e.count(func(s *Stats) { s.RevisitsPorfSkip++ })
				return true
			}
		}
	}

	// The revisit timer covers the cycle pre-check, restriction, rebinding
	// and repair — the revisit machinery itself. The consistency check and
	// any nested exploration are attributed to their own phases.
	ts := e.tRevisit.Start()
	if closesCoherenceCycle(e.p, g, keep, w, r) {
		e.tRevisit.Stop(ts)
		e.traceRevisit("revisit-incoherent", w, r)
		return false
	}
	g2, repaired := rebindRepaired(e.p, g, keep, w, r, e.opts.MaxSteps)
	e.tRevisit.Stop(ts)
	if !repaired {
		return false
	}
	if !e.consistent(g2) {
		return false
	}
	e.count(func(s *Stats) { s.RevisitsTaken++ })
	e.traceRevisit("revisit-taken", w, r)
	e.fork(func() { e.visit(g2) })
	return true
}

// rebindRepaired restricts g to keep, rebinds r to w and repairs the
// result, reporting whether replay converged without structural
// divergence.
func rebindRepaired(p *prog.Program, g *eg.Graph, keep map[eg.EvID]bool, w, r eg.EvID, maxSteps int) (*eg.Graph, bool) {
	g2 := g.Restrict(func(ev eg.EvID) bool { return keep[ev] })
	loc := g2.Event(r).Loc
	g2.SetRF(r, w)

	// A rebound update must sit coherence-immediately after its new rf
	// source: move it there (its old position was tied to its old rf).
	if g2.Event(r).Kind == eg.KUpdate {
		g2.CoRemove(loc, r)
		g2.CoInsert(loc, g2.CoIndex(loc, w)+1, r)
	}
	return g2, interp.RepairAll(p, g2, maxSteps)
}

// cycleScratch is the pooled working memory of closesCoherenceCycle, which
// runs on every revisit attempt and so must not allocate: a dense visited
// set indexed by per-thread offsets, and the walk's stack.
type cycleScratch struct {
	off   []int
	seen  []bool
	stack []eg.EvID
}

var cyclePool = sync.Pool{New: func() any { return new(cycleScratch) }}

// closesCoherenceCycle reports whether rebinding r to w inside keep closes
// a cycle r →(po-loc ∪ rf)+ w →rf r that repair cannot break. The walk goes
// backward from w over po-loc predecessors and rf sources of kept events.
// Repair never deletes events or changes their locations (that is a
// structural divergence), so po-loc edges survive it; it rewrites an rf
// edge only when it demotes a CAS update to a read, re-sourcing the CAS's
// readers. The walk therefore crosses an rf edge only out of a store or an
// unconditional update (FAdd, Xchg), and w itself must be one. A found
// cycle lies on one location, so coherence — which every model includes —
// rejects the repaired graph, and the revisit can be rejected before
// Restrict and RepairAll.
func closesCoherenceCycle(p *prog.Program, g *eg.Graph, keep map[eg.EvID]bool, w, r eg.EvID) bool {
	if !stableWrite(p, g.Event(w)) {
		return false
	}
	s := cyclePool.Get().(*cycleScratch)
	defer cyclePool.Put(s)
	nt := g.NumThreads()
	if cap(s.off) < nt {
		s.off = make([]int, nt)
	}
	s.off = s.off[:nt]
	n := 0
	for t := 0; t < nt; t++ {
		s.off[t] = n
		n += g.ThreadLen(t)
	}
	if cap(s.seen) < n {
		s.seen = make([]bool, n)
	}
	s.seen = s.seen[:n]
	clear(s.seen)
	s.stack = s.stack[:0]

	found := false
	push := func(id eg.EvID) {
		switch {
		case id == r:
			found = true
		case !id.IsInit() && keep[id] && !s.seen[s.off[id.T]+id.I]:
			s.seen[s.off[id.T]+id.I] = true
			s.stack = append(s.stack, id)
		}
	}
	s.seen[s.off[w.T]+w.I] = true
	s.stack = append(s.stack, w)
	for len(s.stack) > 0 && !found {
		id := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		ev := g.Event(id)
		// The nearest po-earlier access to the same location: po-loc is
		// transitive within a thread, so the rest follow from it.
		for i := id.I - 1; i >= 0; i-- {
			if pe := g.Event(eg.EvID{T: id.T, I: i}); pe.Kind != eg.KFence && pe.Loc == ev.Loc {
				push(pe.ID)
				break
			}
		}
		if ev.Kind.IsRead() {
			if src, ok := g.RF(id); ok && stableWrite(p, g.Event(src)) {
				push(src)
			}
		}
	}
	return found
}

// stableWrite reports whether ev is a write that repair keeps a write: a
// store or an unconditional update. A CAS update may be demoted to a read.
func stableWrite(p *prog.Program, ev eg.Event) bool {
	switch ev.Kind {
	case eg.KWrite:
		return true
	case eg.KUpdate:
		code := p.Threads[ev.ID.T]
		if ev.PC < 0 || ev.PC >= len(code) {
			return false
		}
		op := code[ev.PC].Op
		return op == prog.IFAdd || op == prog.IXchg
	}
	return false
}

// existenceDeps reports whether any kept event other than r has a control
// or address dependency — the only seeds of pruneTainted's deletions.
func existenceDeps(g *eg.Graph, keep map[eg.EvID]bool, r eg.EvID) bool {
	for id := range keep { //hmc:nondet(existential scan: any dependent event answers, order-invariant)
		if ev := g.Event(id); id != r && (len(ev.Ctrl) > 0 || len(ev.Addr) > 0) {
			return true
		}
	}
	return false
}

// keepSet computes the events surviving the revisit (r, w): everything
// added before r, plus the downward closure of w (and of r itself) under
// po-predecessors and rf edges — excluding r's own rf edge, which the
// revisit erases. Events added after r that the revisiting write does not
// causally need are deleted and re-derived by continued exploration; the
// rf-closure pulls back any deleted write that a kept read still needs,
// so the restricted graph replays. Init events are implicit and never
// tracked.
func keepSet(g *eg.Graph, w, r eg.EvID) map[eg.EvID]bool {
	keep := make(map[eg.EvID]bool)
	var stack []eg.EvID
	push := func(id eg.EvID) {
		if !id.IsInit() && !keep[id] {
			keep[id] = true
			stack = append(stack, id)
		}
	}
	rStamp := g.Event(r).Stamp
	g.ForEach(func(ev eg.Event) {
		if ev.Stamp < rStamp {
			push(ev.ID)
		}
	})
	push(w)
	push(r)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := 0; i < id.I; i++ {
			push(eg.EvID{T: id.T, I: i})
		}
		if id != r && g.Event(id).Kind.IsRead() {
			if src, ok := g.RF(id); ok {
				push(src)
			}
		}
	}
	return keep
}

// pruneTainted removes from keep every event whose *existence* depends on
// the revisited read r: events with a control or address dependency on a
// value-tainted read (their branch outcome or target location may change
// when r is rebound), plus everything that transitively needs them
// (po-successors and readers). Value-only taint (data dependencies) stays:
// replay repair patches written values in place. It reports false when the
// revisiting write w or r itself would have to go — the revisit is then
// contradictory and abandoned.
func pruneTainted(g *eg.Graph, keep map[eg.EvID]bool, w, r eg.EvID) bool {
	// Value taint: reads whose observed value may change when r is
	// rebound, and writes whose stored value may change.
	taintedReads := map[eg.EvID]bool{r: true}
	taintedWrites := map[eg.EvID]bool{}
	for changed := true; changed; {
		changed = false
		g.ForEach(func(ev eg.Event) {
			if !keep[ev.ID] {
				return
			}
			if ev.Kind.IsWrite() && !taintedWrites[ev.ID] {
				for _, d := range ev.Data {
					if taintedReads[d] {
						taintedWrites[ev.ID] = true
						changed = true
					}
				}
			}
			if ev.Kind.IsRead() && !taintedReads[ev.ID] {
				if src, ok := g.RF(ev.ID); ok && taintedWrites[src] {
					taintedReads[ev.ID] = true
					changed = true
				}
			}
		})
	}

	// Existence taint: ctrl/addr dependency on a tainted read, closed
	// under po-successors and readers-of-deleted-writes.
	doomed := map[eg.EvID]bool{}
	mark := func(id eg.EvID) bool {
		if !keep[id] || doomed[id] {
			return false
		}
		doomed[id] = true
		return true
	}
	g.ForEach(func(ev eg.Event) {
		if !keep[ev.ID] || ev.ID == r {
			return
		}
		for _, set := range [][]eg.EvID{ev.Ctrl, ev.Addr} {
			for _, d := range set {
				if taintedReads[d] {
					mark(ev.ID)
				}
			}
		}
	})
	for changed := true; changed; {
		changed = false
		g.ForEach(func(ev eg.Event) {
			if !keep[ev.ID] || doomed[ev.ID] {
				return
			}
			// po-successor of a doomed event
			for i := 0; i < ev.ID.I; i++ {
				if doomed[eg.EvID{T: ev.ID.T, I: i}] {
					if mark(ev.ID) {
						changed = true
					}
					return
				}
			}
			// reader of a doomed write
			if ev.Kind.IsRead() && ev.ID != r {
				if src, ok := g.RF(ev.ID); ok && doomed[src] {
					if mark(ev.ID) {
						changed = true
					}
				}
			}
		})
	}
	if doomed[w] || doomed[r] {
		return false
	}
	for id := range doomed { //hmc:nondet(set difference: deletions commute, order-invariant)
		delete(keep, id)
	}
	return true
}
