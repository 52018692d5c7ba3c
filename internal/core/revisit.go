package core

import (
	"slices"
	"sync"

	"hmc/internal/eg"
	"hmc/internal/interp"
	"hmc/internal/prog"
)

// revisitsFrom adds to x the child of every backward revisit of a
// same-location read by the write w — which is already part of g, carrying
// its rf (if an update) and coherence position — unless static analysis
// proves the scan vacuous (staticprune.go). Revisits are computed per
// forward branch of w's addition, so the kept prefix reflects exactly the
// bindings of this branch. The reads are taken in (thread, index) order
// straight off g, which no revisit mutates.
func (e *explorer) revisitsFrom(g *eg.Graph, w eg.EvID, loc eg.Loc, x *expansion) {
	if e.pruneRevisitScan(loc) {
		x.d.StaticPrunedScans++
		e.tracePrune("scan", 1)
		return
	}
	for t := 0; t < g.NumThreads(); t++ {
		for i := 0; i < g.ThreadLen(t); i++ {
			r := eg.EvID{T: t, I: i}
			if ev := g.At(r); !ev.Kind.IsRead() || ev.Loc != loc || r == w {
				continue
			}
			if src, ok := g.RF(r); ok && src == w {
				continue // already bound to w (e.g. by a chain steal): a no-op
			}
			e.revisit(g, w, r, x)
		}
	}
}

// revisit performs one backward revisit: the write w (already in g)
// becomes the rf source of the existing read r, and the revisited graph,
// when there is one, is added to x. The graph is restricted to the kept
// set
//
//	V = prefix(w) ∪ prefix(r) ∪ {r}
//
// where prefix is the downward closure under po-predecessors and rf edges
// — except r's own rf edge, which the revisit erases. V is closed under
// po-predecessors, so it is a po-prefix of every thread and is carried as
// a cut vector: thread t keeps its first keep[t] events (keepSet). The
// revisit goes through when
//
//  0. the rebind does not close a cycle r →(po-loc ∪ rf)+ w →rf r out of
//     edges repair cannot rewrite (closesCoherenceCycle): coherence rejects
//     such a graph under every model, so it is discarded before Restrict
//     and RepairAll;
//  1. replaying the rebound graph *repairs* it (RepairAll, from r's
//     thread on to every thread whose reads a patch changed): kept events
//     whose data depends on r get their written values (and CAS
//     success/failure) patched, and no event diverges structurally.
//     This is the HMC dependency condition: independent po-successors of
//     r survive, which is what makes po∪rf-cyclic — load-buffering —
//     executions reachable under hardware memory models;
//  2. the resulting graph is consistent under the memory model;
//  3. the resulting exploration state is new (the drivers' state memo;
//     see drive). Different branches collapse into the same revisited
//     state because the revisit erases r's binding and deletes events; the
//     memo admits exactly one of them.
//
// When 0, 1 or 2 fails, a second phase deletes the kept events whose
// existence hangs on r (pruneTainted) and tries once more; a revisit with
// no kept control or address dependency has nothing to delete and is
// rejected without that retry. The deleted events are closed under
// po-successors, so phase 2's kept set is again a cut.
func (e *explorer) revisit(g *eg.Graph, w, r eg.EvID, x *expansion) {
	x.d.RevisitsTried++
	e.traceRevisit("revisit-tried", w, r)

	// Phase 1: keep everything the revisit does not causally erase and
	// rely on replay repair to patch values (value-preserving dependency
	// idioms survive this way).
	ts := e.tRevisit.Start()
	cut := cutPool.Get().(*cutScratch)
	defer cutPool.Put(cut)
	keep := keepSet(g, w, r, cut)
	e.tRevisit.Stop(ts)
	if e.rebind(g, keep, w, r, x) {
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
		x.d.RevisitsRepairFail++
		return
	}
	ts2 := e.tRevisit.Start()
	pruned, ok := pruneTainted(g, keep, w, r)
	e.tRevisit.Stop(ts2)
	if !ok || slices.Equal(pruned, keep) {
		// Contradictory (w or r itself would go), or nothing prunable: the
		// divergence is a genuine value cycle (out-of-thin-air), which
		// constructive exploration rejects.
		x.d.RevisitsRepairFail++
		return
	}
	if !e.rebind(g, pruned, w, r, x) {
		x.d.RevisitsRepairFail++
	}
}

// rebind restricts g to keep, rebinds r to w, repairs and — when replay
// converges — checks consistency and adds the result to x. It reports
// whether the rebound graph both repaired and passed the consistency
// check. A rebind that closes a coherence cycle is rejected before any of
// that.
func (e *explorer) rebind(g *eg.Graph, keep []int, w, r eg.EvID, x *expansion) bool {
	if e.opts.PorfOnlyRevisits {
		// Ablation: RC11-style revisits delete everything po-after r.
		// If a kept event is po-after r the revisit is skipped entirely
		// (under porf-acyclic models it would be inconsistent anyway).
		for i := r.I + 1; i < keep[r.T]; i++ {
			if (eg.EvID{T: r.T, I: i}) != w {
				x.d.RevisitsPorfSkip++
				return true
			}
		}
	}

	// The revisit timer covers the cycle pre-check, restriction, rebinding
	// and repair — the revisit machinery itself. The consistency check is
	// attributed to its own phase.
	ts := e.tRevisit.Start()
	if closesCoherenceCycle(e.p, g, keep, w, r) {
		e.tRevisit.Stop(ts)
		e.traceRevisit("revisit-incoherent", w, r)
		return false
	}
	g2, repaired := rebindRepaired(e.p, g, keep, w, r, e.opts.MaxSteps)
	e.tRevisit.Stop(ts)
	if !repaired || !e.consistent(g2, x) {
		return false
	}
	x.d.RevisitsTaken++
	e.traceRevisit("revisit-taken", w, r)
	x.kids = append(x.kids, g2)
	return true
}

// rebindRepaired restricts g to keep, rebinds r to w and repairs the
// result, reporting whether replay converged without structural
// divergence.
func rebindRepaired(p *prog.Program, g *eg.Graph, keep []int, w, r eg.EvID, maxSteps int) (*eg.Graph, bool) {
	g2 := g.Restrict(keep)
	re := g2.At(r)
	loc, kind := re.Loc, re.Kind
	g2.SetRF(r, w)

	// A rebound update must sit coherence-immediately after its new rf
	// source: move it there (its old position was tied to its old rf).
	if kind == eg.KUpdate {
		g2.CoRemove(loc, r)
		g2.CoInsert(loc, g2.CoIndex(loc, w)+1, r)
	}
	return g2, interp.RepairAll(p, g2, r, maxSteps)
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
func closesCoherenceCycle(p *prog.Program, g *eg.Graph, keep []int, w, r eg.EvID) bool {
	if !stableWrite(p, g.At(w)) {
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
		case !id.IsInit() && id.I < keep[id.T] && !s.seen[s.off[id.T]+id.I]:
			s.seen[s.off[id.T]+id.I] = true
			s.stack = append(s.stack, id)
		}
	}
	s.seen[s.off[w.T]+w.I] = true
	s.stack = append(s.stack, w)
	for len(s.stack) > 0 && !found {
		id := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		ev := g.At(id)
		// The nearest po-earlier access to the same location: po-loc is
		// transitive within a thread, so the rest follow from it.
		for i := id.I - 1; i >= 0; i-- {
			if pe := g.At(eg.EvID{T: id.T, I: i}); pe.Kind != eg.KFence && pe.Loc == ev.Loc {
				push(pe.ID)
				break
			}
		}
		if ev.Kind.IsRead() {
			if src, ok := g.RF(id); ok && !src.IsInit() && stableWrite(p, g.At(src)) {
				push(src)
			}
		}
	}
	return found
}

// stableWrite reports whether ev is a write that repair keeps a write: a
// store or an unconditional update. A CAS update may be demoted to a read.
func stableWrite(p *prog.Program, ev *eg.Event) bool {
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
func existenceDeps(g *eg.Graph, keep []int, r eg.EvID) bool {
	for t, n := range keep {
		for i := 0; i < n; i++ {
			if ev := g.At(eg.EvID{T: t, I: i}); ev.ID != r && (len(ev.Ctrl) > 0 || len(ev.Addr) > 0) {
				return true
			}
		}
	}
	return false
}

// cutScratch is the pooled backing store of keepSet's cut vector and its
// closure bookkeeping. A revisit holds it until it returns: Restrict and
// pruneTainted copy what they need and keep no reference to the cut.
type cutScratch struct{ buf []int }

var cutPool = sync.Pool{New: func() any { return new(cutScratch) }}

// keepSet computes the events surviving the revisit (r, w) as a cut
// vector: thread t keeps its first keep[t] events. The kept set is
// everything added before r, plus the downward closure of w (and of r
// itself) under po-predecessors and rf edges — excluding r's own rf edge,
// which the revisit erases. Events added after r that the revisiting
// write does not causally need are deleted and re-derived by continued
// exploration; the rf-closure pulls back any deleted write that a kept
// read still needs, so the restricted graph replays. Init events are
// implicit and never tracked.
//
// Every step of the closure adds po-predecessors, so the set is a
// po-prefix of each thread, and the closure only ever raises a thread's
// cut: keep[t] is the cut asked for so far, done[t] how much of it has
// had its rf sources pulled in. The cut is carved from s and valid until
// s is reused.
func keepSet(g *eg.Graph, w, r eg.EvID, s *cutScratch) []int {
	nt := g.NumThreads()
	if cap(s.buf) < 2*nt {
		s.buf = make([]int, 2*nt)
	}
	buf := s.buf[:2*nt]
	clear(buf)
	keep, done := buf[:nt:nt], buf[nt:]
	need := func(id eg.EvID) {
		if !id.IsInit() && keep[id.T] <= id.I {
			keep[id.T] = id.I + 1
		}
	}
	rStamp := g.At(r).Stamp
	for t := range keep {
		for i := g.ThreadLen(t) - 1; i >= 0; i-- {
			if g.At(eg.EvID{T: t, I: i}).Stamp < rStamp {
				keep[t] = i + 1
				break
			}
		}
	}
	need(w)
	need(r)
	for grown := true; grown; {
		grown = false
		for t := range keep {
			for ; done[t] < keep[t]; done[t]++ {
				grown = true
				id := eg.EvID{T: t, I: done[t]}
				if id != r && g.At(id).Kind.IsRead() {
					if src, ok := g.RF(id); ok {
						need(src)
					}
				}
			}
		}
	}
	return keep
}

// pruneTainted returns the cut left after deleting from keep every event
// whose *existence* depends on the revisited read r: events with a
// control or address dependency on a value-tainted read (their branch
// outcome or target location may change when r is rebound), plus
// everything that transitively needs them (po-successors and readers).
// Value-only taint (data dependencies) stays: replay repair patches
// written values in place. It reports false when the revisiting write w
// or r itself would have to go — the revisit is then contradictory and
// abandoned.
//
// The kept events are numbered densely (thread t's kept events from
// off[t]) for the taint tables. Deleted events are closed under
// po-successors, so the deletions are a suffix of each thread's kept
// prefix and the result is again a cut: thread t keeps its events below
// from[t].
func pruneTainted(g *eg.Graph, keep []int, w, r eg.EvID) ([]int, bool) {
	nt := len(keep)
	off := make([]int, nt+1)
	for t, n := range keep {
		off[t+1] = off[t] + n
	}
	kept := func(id eg.EvID) bool { return !id.IsInit() && id.I < keep[id.T] }
	idx := func(id eg.EvID) int { return off[id.T] + id.I }

	// Value taint: reads whose observed value may change when r is
	// rebound, and writes whose stored value may change.
	taintedRead := make([]bool, 2*off[nt])
	taintedWrite := taintedRead[off[nt]:]
	taintedRead[idx(r)] = true
	for changed := true; changed; {
		changed = false
		for t, n := range keep {
			for i := 0; i < n; i++ {
				ev, k := g.At(eg.EvID{T: t, I: i}), off[t]+i
				if ev.Kind.IsWrite() && !taintedWrite[k] {
					for _, d := range ev.Data {
						if taintedRead[idx(d)] {
							taintedWrite[k] = true
							changed = true
						}
					}
				}
				if ev.Kind.IsRead() && !taintedRead[k] {
					if src, ok := g.RF(ev.ID); ok && kept(src) && taintedWrite[idx(src)] {
						taintedRead[k] = true
						changed = true
					}
				}
			}
		}
	}

	// Existence taint: ctrl/addr dependency on a tainted read, closed
	// under po-successors (by lowering from) and readers of deleted writes.
	from := append([]int(nil), keep...)
	doomed := func(id eg.EvID) bool { return kept(id) && id.I >= from[id.T] }
	for t, n := range keep {
		for i := 0; i < n && i < from[t]; i++ {
			ev := g.At(eg.EvID{T: t, I: i})
			if ev.ID == r {
				continue
			}
			for _, set := range [][]eg.EvID{ev.Ctrl, ev.Addr} {
				for _, d := range set {
					if taintedRead[idx(d)] {
						from[t] = i
					}
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for t := range keep {
			for i := 0; i < from[t]; i++ {
				id := eg.EvID{T: t, I: i}
				if id == r || !g.At(id).Kind.IsRead() {
					continue
				}
				if src, ok := g.RF(id); ok && doomed(src) {
					from[t] = i
					changed = true
				}
			}
		}
	}
	if doomed(w) || doomed(r) {
		return nil, false
	}
	return from, true
}
