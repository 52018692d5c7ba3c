package memmodel

import (
	"hmc/internal/eg"
	"hmc/internal/relation"
)

// This file preserves the reference implementations of the store-buffer
// family: materialize the union of the axiom's edge sets, then run a full
// from-scratch Acyclic(). The production predicates in hardware_sb.go
// stream the same edges into an incrementally maintained DeltaRel; the
// copies here are the oracle the random-graph property tests in
// streaming_test.go pin that rewrite against. A predicate that decides
// identically on every graph yields an identical exploration, so that
// equivalence is the whole proof.

// legacyModel wraps a reference predicate under the original model name.
type legacyModel struct {
	name string
	fn   func(*eg.View) bool
}

// Name implements Model.
func (m legacyModel) Name() string { return m.name }

// Consistent implements Model.
func (m legacyModel) Consistent(v *eg.View) bool { return m.fn(v) }

// Legacy returns the reference implementation of m. Models whose
// consistency code was not rewritten for the incremental checker (their
// ordering axioms are shared by both paths) are returned unchanged.
func Legacy(m Model) Model {
	switch m.Name() {
	case "sc":
		return legacyModel{"sc", legacySCConsistent}
	case "tso":
		return legacyModel{"tso", func(v *eg.View) bool { return legacyStoreBuffer(v, false) }}
	case "pso":
		return legacyModel{"pso", func(v *eg.View) bool { return legacyStoreBuffer(v, true) }}
	}
	return m
}

// LegacyCoherent is the reference SC-per-location check:
// acyclic(po-loc ∪ rf ∪ co ∪ fr) over a materialized union.
func LegacyCoherent(v *eg.View) bool {
	r := v.PoLoc().Union(v.Rf()).UnionWith(v.Co()).UnionWith(v.Fr())
	return r.Acyclic()
}

func legacyBaseConsistent(v *eg.View) bool { return Atomic(v) && LegacyCoherent(v) }

func legacySCConsistent(v *eg.View) bool {
	if !legacyBaseConsistent(v) {
		return false
	}
	ghb := v.Po().Union(v.Rf()).UnionWith(v.Co()).UnionWith(v.Fr())
	return ghb.Acyclic()
}

func legacyStoreBuffer(v *eg.View, relaxWW bool) bool {
	if !legacyBaseConsistent(v) {
		return false
	}
	ppo := legacyStoreBufferPPO(v, relaxWW)
	ghb := ppo.UnionWith(v.Rfe()).UnionWith(v.Co()).UnionWith(v.Fr())
	return ghb.Acyclic()
}

// legacyStoreBufferPPO is storeBufferPPO with the original quadratic
// separator scan (every candidate pair walks all events looking for an
// intervening fence/update). It makes no assumption about the view's
// dense layout.
func legacyStoreBufferPPO(v *eg.View, relaxWW bool) *relation.Rel {
	po := v.Po()
	ppo := po.Clone()

	isPlainWrite := func(e eg.Event) bool { return e.Kind == eg.KWrite }
	isPlainRead := func(e eg.Event) bool { return e.Kind == eg.KRead && !e.Excl }

	sepFull := make([]bool, v.N)
	sepWW := make([]bool, v.N)
	for i, e := range v.Events {
		if e.Kind == eg.KUpdate || (e.Kind == eg.KRead && e.Excl) ||
			(e.Kind == eg.KFence && e.Fence == eg.FenceFull) {
			sepFull[i] = true
			sepWW[i] = true
		}
		if e.Kind == eg.KFence && e.Fence == eg.FenceLW {
			sepWW[i] = true
		}
	}
	separated := func(a, b int, sep []bool) bool {
		for m := 0; m < v.N; m++ {
			if sep[m] && po.Has(a, m) && po.Has(m, b) {
				return true
			}
		}
		return false
	}

	po.Pairs(func(a, b int) {
		ea, eb := v.Events[a], v.Events[b]
		if ea.Kind == eg.KFence || eb.Kind == eg.KFence {
			ppo.Remove(a, b)
			return
		}
		if ea.ID.IsInit() {
			return
		}
		switch {
		case isPlainWrite(ea) && isPlainRead(eb):
			if !separated(a, b, sepFull) {
				ppo.Remove(a, b)
			}
		case relaxWW && isPlainWrite(ea) && eb.Kind == eg.KWrite && ea.Loc != eb.Loc:
			if !separated(a, b, sepWW) {
				ppo.Remove(a, b)
			}
		}
	})
	return ppo
}
