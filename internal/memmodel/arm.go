package memmodel

import (
	"hmc/internal/eg"
	"hmc/internal/relation"
)

// ARM is "ARMv8-lite": a dependency-aware, *multi-copy-atomic* hardware
// model in the style of the revised ARMv8 axiomatic model (Pulte et al.,
// POPL'18). Where IMM-lite is POWER-flavoured (writes may become visible
// to different observers at different times), ARMv8 guarantees that all
// other observers see writes in a single order: the *ordered-before*
// relation threads external communication (rfe, coe, fre) directly
// through the thread-local preserved order, and must be acyclic.
//
// Axioms (beyond shared coherence and atomicity):
//
//	dob := addr ∪ data ∪ ctrl∩(→W), extended through store-to-load
//	       forwarding ([R];(deps ∪ rfi)⁺ as in IMM-lite)
//	bob := po;[Ffull];po                          (DMB SY)
//	     ∪ po;[Flw];po minus W→R                  (lwsync-like, as in
//	                                               IMM-lite; orders R→R)
//	     ∪ [R];po;[Fld];po                        (DMB LD)
//	ob  := dob ∪ bob ∪ rfe ∪ coe ∪ fre            must be acyclic
//
// The lw barrier is IMM-lite's, not DMB ST's W×W: it also orders reads, so
// MP+lw+lw is forbidden here (the litmus corpus pins this).
//
// Consequences, all pinned by the litmus corpus: SB/MP/LB/2+2W behave as
// on IMM-lite, but IRIW (and WRC) become forbidden as soon as the readers
// are ordered by *anything* — an address dependency suffices — because
// fre and coe participate in ob (multi-copy atomicity). On IMM-lite the
// same tests stay allowed (POWER's non-MCA behaviour).
//
// The predicate streams into one pooled DeltaRel: rfe ∪ coe ∪ fre, common
// to coherence and ob, is loaded once; coherence adds its remaining edges
// and is rolled back; ob adds dob ∪ bob on the same prefix. The
// materialized formulation is the test oracle in legacy_test.go.
type ARM struct{}

// Name implements Model.
func (ARM) Name() string { return "arm" }

// Consistent implements Model.
func (ARM) Consistent(v *eg.View) bool {
	if !Atomic(v) {
		return false
	}
	s := getScratch(v.N)
	defer putScratch(s)
	d := s.d
	rfSrc := s.rfSources(v)
	ext := v.Empty()
	addRfe(v, ext, rfSrc)
	addExternal(v, ext, v.Co())
	addExternal(v, ext, v.Fr())
	if !d.AddRelAcyclic(ext) {
		return false // a cycle in rfe ∪ coe ∪ fre is already incoherent
	}
	mark := d.Snapshot()
	if !d.AddRelAcyclic(v.Co()) || !d.AddRelAcyclic(v.Fr()) ||
		!d.AddRelAcyclic(v.PoLoc()) || !d.AddRelAcyclic(v.Rf()) {
		return false // incoherent
	}
	d.Rollback(mark)
	return d.AddRelAcyclic(preservedOrder(v, rfSrc))
}

// addExternal adds to dst the pairs of r whose endpoints lie in different
// threads (init events count as external to every thread).
func addExternal(v *eg.View, dst, r *relation.Rel) {
	r.Pairs(func(a, b int) {
		if v.Events[a].ID.T != v.Events[b].ID.T {
			dst.Add(a, b)
		}
	})
}
