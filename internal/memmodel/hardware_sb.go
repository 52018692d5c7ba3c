package memmodel

import (
	"hmc/internal/eg"
	"hmc/internal/relation"
)

// This file defines the store-buffer family: SC, x86-TSO and PSO, all of
// the form coherence ∧ atomicity ∧ acyclic(ghb) where ghb = ppo ∪ rfe ∪
// co ∪ fr and ppo is program order with the model's buffered pairs
// removed (and restored across fences and atomic updates, which drain the
// buffer).
//
// The predicates stream their edge sets into a pooled DeltaRel instead of
// materializing unions: TSO and PSO load the co ∪ fr edges shared by the
// coherence and ghb axioms once, snapshot, decide coherence, roll back and
// decide ghb on top of the same prefix. The from-scratch formulations live
// in legacy_test.go, as the oracle the streaming predicates are tested
// against.

// SC is sequential consistency: acyclic(po ∪ rf ∪ co ∪ fr).
type SC struct{}

// Name implements Model.
func (SC) Name() string { return "sc" }

// Consistent implements Model.
func (SC) Consistent(v *eg.View) bool {
	if !Atomic(v) {
		return false
	}
	// Coherence's edge set (po-loc ∪ rf ∪ co ∪ fr) is a subset of SC's
	// ghb (po-loc ⊆ po), so a single acyclicity pass decides both axioms.
	s := getScratch(v.N)
	d := s.d
	ok := d.AddRelAcyclic(v.Po()) && d.AddRelAcyclic(v.Rf()) &&
		d.AddRelAcyclic(v.Co()) && d.AddRelAcyclic(v.Fr())
	putScratch(s)
	return ok
}

// TSO is x86-TSO/SPARC-TSO: stores may be delayed past later loads of
// other locations (W→R relaxed); full fences and atomic updates drain the
// store buffer; loads may forward from the local buffer (rfi excluded from
// the global-happens-before check).
type TSO struct{}

// Name implements Model.
func (TSO) Name() string { return "tso" }

// Consistent implements Model.
func (TSO) Consistent(v *eg.View) bool { return storeBufferConsistent(v, false) }

// PSO additionally relaxes W→W (per-location store buffers): stores to
// different locations may commit out of order. lw fences restore W→W;
// full fences and updates restore everything.
type PSO struct{}

// Name implements Model.
func (PSO) Name() string { return "pso" }

// Consistent implements Model.
func (PSO) Consistent(v *eg.View) bool { return storeBufferConsistent(v, true) }

// storeBufferConsistent decides atomicity ∧ coherence ∧ acyclic(ppo ∪ rfe
// ∪ co ∪ fr) with one DeltaRel: the co ∪ fr edges common to the two
// acyclicity axioms are loaded once and shared via snapshot/rollback.
func storeBufferConsistent(v *eg.View, relaxWW bool) bool {
	if !Atomic(v) {
		return false
	}
	s := getScratch(v.N)
	defer putScratch(s)
	d := s.d
	if !d.AddRelAcyclic(v.Co()) || !d.AddRelAcyclic(v.Fr()) {
		return false // a cycle inside co ∪ fr already violates coherence
	}
	mark := d.Snapshot()
	if !d.AddRelAcyclic(v.PoLoc()) || !d.AddRelAcyclic(v.Rf()) {
		return false // incoherent
	}
	d.Rollback(mark)
	return d.AddRelAcyclic(storeBufferPPO(v, relaxWW, s)) && d.AddRelAcyclic(v.Rfe())
}

// storeBufferPPO computes preserved program order for the store-buffer
// models: program order without the pairs a store buffer reorders. A
// plain write a is not ordered before
//
//   - a later plain read, unless a full fence or an atomic update (or an
//     exclusive read) lies between them;
//   - when relaxWW is set, a later plain write to another location, unless
//     such a separator or an lw fence lies between them.
//
// Updates count as both reads and writes and are never buffered (x86
// locked instructions and SPARC atomics are fencing). Fences are not
// global-order nodes: they only separate the accesses around them, so no
// ppo edge enters or leaves one.
//
// The rows are built directly, with no po copy: the view lays each thread
// out contiguously in dense order, so row a is the events after a in its
// thread minus the dropped ones, added as one word fill per run of kept
// events. A backward pass per thread first records, in s, the first full
// and store-store separator after each event; a later event b is
// separated from a exactly when that separator comes before b.
func storeBufferPPO(v *eg.View, relaxWW bool, s *scratch) *relation.Rel {
	ppo := v.Empty()
	ev := v.Events
	s.nextFull = fill(s.nextFull, v.N, 0)
	s.nextWW = fill(s.nextWW, v.N, 0)
	nextFull, nextWW := s.nextFull, s.nextWW
	nt := v.G.NumThreads()
	for t := 0; t < nt; t++ {
		lo, hi := v.ThreadRange(t)
		full, ww := hi, hi
		for a := hi - 1; a >= lo; a-- {
			nextFull[a], nextWW[a] = full, ww
			switch e := &ev[a]; {
			case e.Kind == eg.KUpdate || (e.Kind == eg.KRead && e.Excl) ||
				(e.Kind == eg.KFence && e.Fence == eg.FenceFull):
				full, ww = a, a
			case e.Kind == eg.KFence && e.Fence == eg.FenceLW:
				ww = a
			}
		}
	}

	// Init writes are globally visible from the start: each precedes
	// every thread access. Row 0 is filled, the other init rows copy it.
	if nl := v.G.NumLocs(); nl > 0 {
		run := nl
		for b := nl; b < v.N; b++ {
			if ev[b].Kind == eg.KFence {
				ppo.AddRange(0, run, b)
				run = b + 1
			}
		}
		ppo.AddRange(0, run, v.N)
		for l := 1; l < nl; l++ {
			ppo.UnionRow(l, 0)
		}
	}

	for t := 0; t < nt; t++ {
		lo, hi := v.ThreadRange(t)
		for a := lo; a < hi; a++ {
			ea := &ev[a]
			if ea.Kind == eg.KFence {
				continue
			}
			// Only a plain write has later events buffered behind it, and
			// only those up to its next full separator.
			cut := a
			if ea.Kind == eg.KWrite {
				cut = nextFull[a]
			}
			run := a + 1
			for b := a + 1; b < hi; b++ {
				eb := &ev[b]
				drop := eb.Kind == eg.KFence
				if !drop && b <= cut {
					drop = (eb.Kind == eg.KRead && !eb.Excl) ||
						(relaxWW && b <= nextWW[a] && eb.Kind == eg.KWrite && eb.Loc != ea.Loc)
				}
				if drop {
					ppo.AddRange(a, run, b)
					run = b + 1
				}
			}
			ppo.AddRange(a, run, hi)
		}
	}
	return ppo
}
