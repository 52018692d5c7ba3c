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
// models. Starting from po it removes W→R pairs (and, when relaxWW is
// set, W→W pairs to different locations), then restores pairs separated
// by a sufficient fence or an atomic update:
//
//   - full fences and updates restore both W→R and W→W;
//   - lw fences restore W→W only.
//
// Updates count as both reads and writes and are never buffered
// (x86 locked instructions and SPARC atomics are fencing).
//
// Separation is decided in O(1) per pair from prefix counts of separator
// events: the view lays each thread out contiguously in dense order, so
// the separators strictly between same-thread events a < b are exactly
// those in the dense interval (a, b). The prefix arrays live in s.
func storeBufferPPO(v *eg.View, relaxWW bool, s *scratch) *relation.Rel {
	po := v.Po()
	ppo := po.Clone()

	isPlainWrite := func(e *eg.Event) bool { return e.Kind == eg.KWrite }
	isPlainRead := func(e *eg.Event) bool { return e.Kind == eg.KRead && !e.Excl }

	// pFull[i] / pWW[i] = number of full / store-store separators among
	// Events[0..i).
	s.pFull = fill(s.pFull, v.N+1, 0)
	s.pWW = fill(s.pWW, v.N+1, 0)
	pFull, pWW := s.pFull, s.pWW
	for i := range v.Events {
		e := &v.Events[i]
		f, w := 0, 0
		if e.Kind == eg.KUpdate || (e.Kind == eg.KRead && e.Excl) ||
			(e.Kind == eg.KFence && e.Fence == eg.FenceFull) {
			f, w = 1, 1
		}
		if e.Kind == eg.KFence && e.Fence == eg.FenceLW {
			w = 1
		}
		pFull[i+1] = pFull[i] + f
		pWW[i+1] = pWW[i] + w
	}
	separated := func(a, b int, prefix []int) bool {
		return prefix[b] > prefix[a+1]
	}

	po.Pairs(func(a, b int) {
		ea, eb := &v.Events[a], &v.Events[b]
		// Fences are not global-order nodes themselves: they only restore
		// access pairs around them. Leaving fence-incident po edges in ghb
		// would smuggle W→R order through the fence node.
		if ea.Kind == eg.KFence || eb.Kind == eg.KFence {
			ppo.Remove(a, b)
			return
		}
		if ea.ID.IsInit() {
			return // init writes are globally visible from the start
		}
		switch {
		case isPlainWrite(ea) && isPlainRead(eb):
			if !separated(a, b, pFull) {
				ppo.Remove(a, b)
			}
		case relaxWW && isPlainWrite(ea) && eb.Kind == eg.KWrite && ea.Loc != eb.Loc:
			if !separated(a, b, pWW) {
				ppo.Remove(a, b)
			}
		}
	})
	return ppo
}
