package memmodel

import (
	"hmc/internal/eg"
	"hmc/internal/relation"
)

// RC11 is "RC11-lite": the language-level C/C++11 model (Lahav et al.,
// PLDI'17) over per-access memory-order annotations — the model the
// GenMC/RCMC line of checkers targets, and the contrast class to the
// hardware models in this repository: RC11 forbids all (po ∪ rf) cycles,
// so the porf-only revisit ablation (T5) is *complete* for it, while
// hardware models need HMC's dependency-aware revisits.
//
// Axioms (beyond shared coherence and atomicity):
//
//	rs(w) := {w} ∪ the chain of updates reading (transitively) from w
//	sw    := [rel writes] ; rs-rf ; [acq reads]        (synchronises-with)
//	hb    := (po ∪ sw)⁺                                (happens-before)
//	coh   := irreflexive(hb ; eco?)                    (coherence over hb)
//	porf  := acyclic(po ∪ rf)                          (no load buffering:
//	         RC11's out-of-thin-air fix)
//	psc   := acyclic over SC anchors only: accesses connect by one step
//	         of po∪rf∪co∪fr, fences extend through one po hop per side
//	         and to other fences via po;eco;po (see rc11PSC) — no closure
//	         through non-SC events, so one annotated thread buys nothing
//
// Unannotated (ModePlain) accesses behave like relaxed atomics; this
// simplification (no non-atomics, hence no data races) is documented in
// DESIGN.md.
type RC11 struct{}

// Name implements Model.
func (RC11) Name() string { return "rc11" }

// Consistent implements Model.
func (RC11) Consistent(v *eg.View) bool {
	if !baseConsistent(v) {
		return false
	}
	if !v.Po().Union(v.Rf()).Acyclic() {
		return false // porf cycle: forbidden at the language level
	}
	hb := rc11HB(v)
	if !hb.Compose(v.Eco()).Irreflexive() {
		return false
	}
	return rc11PSC(v)
}

// RC11HappensBefore exposes rc11's happens-before relation (po ∪ sw)⁺ —
// used by the data-race detector in internal/core.
func RC11HappensBefore(v *eg.View) *relation.Rel { return rc11HB(v) }

// rc11HB computes (po ∪ sw)⁺.
func rc11HB(v *eg.View) *relation.Rel {
	sw := v.Empty()
	// Release sequences: for each release-or-stronger write w, the set
	// {w} plus updates chained from it by rf.
	for a, ea := range v.Events {
		if !ea.Kind.IsWrite() || !ea.Mode.Release() {
			continue
		}
		// Walk rf chains through updates starting at a.
		inRS := map[int]bool{a: true}
		// Pop with a head cursor: re-slicing (frontier = frontier[1:])
		// keeps the backing array alive and re-slices per pop.
		frontier := []int{a}
		for head := 0; head < len(frontier); head++ {
			w := frontier[head]
			v.Rf().Successors(w, func(r int) {
				if v.Events[r].Kind == eg.KUpdate && !inRS[r] {
					inRS[r] = true
					frontier = append(frontier, r)
				}
			})
		}
		// sw edges: any acquire read reading from the release sequence.
		for w := range inRS {
			v.Rf().Successors(w, func(r int) {
				if v.Events[r].Mode.Acquire() {
					sw.Add(a, r)
				}
			})
		}
	}
	return v.Po().Union(sw).TransitiveClose()
}

// rc11PSC checks the seq_cst axiom, following RC11's anchored shape
// rather than a blanket closure: psc edges exist only *between* SC
// anchors (SC-annotated accesses, plus full fences standing in for
// seq_cst fences), never through intermediate non-SC events.
//
//   - access → access: one step of po ∪ rf ∪ co ∪ fr (the scb core;
//     including rf is a mild strengthening of scb's hb\loc that matches
//     the C11 total-order intuition and the SC-IRIW verdict);
//   - a fence anchors through one po hop on each side
//     ([F];po?;step;po?;[F], RC11's psc_base fence extension);
//   - fence → fence additionally via po;eco;po with eco transitive
//     (RC11's psc_F = hb;eco;hb — this is what makes SC fences restore
//     IRIW even though the reads themselves are relaxed).
//
// Crucially there is no transitive closure through non-anchor events:
// annotating only one thread of SB buys nothing (SB+sc+rlx stays
// observable), exactly as in RC11.
func rc11PSC(v *eg.View) bool {
	isFence := func(e *eg.Event) bool {
		return e.Kind == eg.KFence && e.Fence == eg.FenceFull
	}
	isAnchor := func(e *eg.Event) bool {
		return e.Mode == eg.ModeSC || isFence(e)
	}
	anchors := v.FilterIdx(isAnchor)
	if len(anchors) < 2 {
		return true
	}
	po := v.Po()
	step := po.Union(v.Rf()).UnionWith(v.Co()).UnionWith(v.Fr())
	eco := v.Eco()

	// hop returns the events an anchor reaches through its optional po
	// extension: itself, plus (for fences) its po neighbours on the
	// given side.
	hop := func(a int, succ bool) []int {
		out := []int{a}
		if !isFence(&v.Events[a]) {
			return out
		}
		for x := 0; x < v.N; x++ {
			if (succ && po.Has(a, x)) || (!succ && po.Has(x, a)) {
				out = append(out, x)
			}
		}
		return out
	}

	psc := v.Empty()
	for _, a := range anchors {
		lefts := hop(a, true)
		for _, b := range anchors {
			if a == b {
				continue
			}
			rights := hop(b, false)
			connected := false
			for _, x := range lefts {
				for _, y := range rights {
					if x != y && step.Has(x, y) {
						connected = true
					}
					// psc_F: fence ; po ; eco ; po ; fence.
					if isFence(&v.Events[a]) && isFence(&v.Events[b]) &&
						x != a && y != b && x != y && eco.Has(x, y) {
						connected = true
					}
				}
			}
			if connected {
				psc.Add(a, b)
			}
		}
	}
	return psc.Acyclic()
}
