package memmodel

import (
	"testing"

	"hmc/internal/eg"
	"hmc/internal/relation"
)

// This file preserves the reference implementations of the streaming
// models — the store-buffer family (sc/tso/pso) and the hardware models
// (imm/arm): materialize the axioms' relations (unions, compositions,
// transitive closures), then run from-scratch Acyclic()/Irreflexive()
// checks. The production predicates in hardware_sb.go, imm.go and arm.go
// stream the same edges into an incrementally maintained DeltaRel; the
// copies here are the oracle the random-graph property tests in
// streaming_test.go pin that rewrite against. A predicate that decides
// identically on every graph yields an identical exploration, so that
// equivalence is the whole proof.
//
// The view helpers the hardware oracles are written in (dependency
// relations, rfi, SeqFence, Restrict) have no production caller left, so
// they live here as test-local functions over *eg.View.

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
	case "imm":
		return legacyModel{"imm", legacyIMMConsistent}
	case "arm":
		return legacyModel{"arm", legacyARMConsistent}
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

// ---- hardware models (imm/arm) -------------------------------------------

func legacyIMMConsistent(v *eg.View) bool {
	if !legacyBaseConsistent(v) {
		return false
	}
	hb := legacyImmHB(v)
	if !v.Co().Union(hb).Acyclic() {
		return false // thin air or barrier-ordered propagation violation
	}
	if !hb.Compose(v.Eco()).Irreflexive() {
		return false // observation violation (e.g. fenced message passing)
	}
	return pscAcyclic(v)
}

// legacyImmHB computes (ppo ∪ bob ∪ rfe)⁺.
func legacyImmHB(v *eg.View) *relation.Rel {
	ord := legacyImmPPO(v).UnionWith(legacyImmBob(v)).UnionWith(v.Rfe())
	return ord.TransitiveClose()
}

// legacyImmPPO returns the dependency-induced preserved program order:
// [R];(addr ∪ data ∪ ctrl-to-writes ∪ rfi)⁺.
func legacyImmPPO(v *eg.View) *relation.Rel {
	isWrite := func(e eg.Event) bool { return e.Kind.IsWrite() }
	isRead := func(e eg.Event) bool { return e.Kind.IsRead() }

	step := legacyDepAddr(v).Union(legacyDepData(v))
	step.UnionWith(legacyRestrict(v, legacyDepCtrl(v), nil, isWrite))
	step.UnionWith(legacyRfi(v))
	chains := step.TransitiveClose()
	return legacyRestrict(v, chains, isRead, nil)
}

// legacyImmBob returns the barrier-ordered-before relation.
func legacyImmBob(v *eg.View) *relation.Rel {
	isRead := func(e eg.Event) bool { return e.Kind.IsRead() }

	bob := legacySeqFence(v, eg.FenceFull)
	lw := legacySeqFence(v, eg.FenceLW)
	lw.MinusWith(legacyRestrict(v, lw,
		func(e eg.Event) bool { return e.Kind == eg.KWrite },
		func(e eg.Event) bool { return e.Kind == eg.KRead }))
	bob.UnionWith(lw)
	bob.UnionWith(legacyRestrict(v, legacySeqFence(v, eg.FenceLD), isRead, nil))
	return bob
}

func legacyARMConsistent(v *eg.View) bool {
	if !legacyBaseConsistent(v) {
		return false
	}
	return legacyArmOB(v).Acyclic()
}

// legacyArmOB computes the ordered-before relation.
func legacyArmOB(v *eg.View) *relation.Rel {
	ob := legacyImmPPO(v) // [R];(deps ∪ rfi)⁺ — same dependency skeleton as IMM-lite
	ob.UnionWith(legacyImmBob(v))
	ob.UnionWith(v.Rfe())
	// External coherence and from-read: the multi-copy-atomic ingredients.
	ext := func(r *relation.Rel) *relation.Rel {
		return legacyRestrict(v, r, nil, nil).Minus(legacySameThread(v, r))
	}
	ob.UnionWith(ext(v.Co()))
	ob.UnionWith(ext(v.Fr()))
	return ob
}

// legacySameThread returns the pairs of r whose endpoints share a thread
// (init events count as external to every thread).
func legacySameThread(v *eg.View, r *relation.Rel) *relation.Rel {
	out := v.Empty()
	r.Pairs(func(a, b int) {
		ea, eb := v.Events[a], v.Events[b]
		if !ea.ID.IsInit() && !eb.ID.IsInit() && ea.ID.T == eb.ID.T {
			out.Add(a, b)
		}
	})
	return out
}

// ---- view helpers of the hardware oracles --------------------------------

// legacyRfi returns internal (same-thread) reads-from.
func legacyRfi(v *eg.View) *relation.Rel { return v.Rf().Minus(v.Rfe()) }

func legacyDepRel(v *eg.View, pick func(eg.Event) []eg.EvID) *relation.Rel {
	r := v.Empty()
	for b, ev := range v.Events {
		for _, d := range pick(ev) {
			r.Add(v.Idx(d), b)
		}
	}
	return r
}

// legacyDepAddr returns address dependencies (read → dependent event).
func legacyDepAddr(v *eg.View) *relation.Rel {
	return legacyDepRel(v, func(e eg.Event) []eg.EvID { return e.Addr })
}

// legacyDepData returns data dependencies (read → dependent write).
func legacyDepData(v *eg.View) *relation.Rel {
	return legacyDepRel(v, func(e eg.Event) []eg.EvID { return e.Data })
}

// legacyDepCtrl returns control dependencies (read → every event po-after
// a branch whose condition depends on the read).
func legacyDepCtrl(v *eg.View) *relation.Rel {
	return legacyDepRel(v, func(e eg.Event) []eg.EvID { return e.Ctrl })
}

// legacyDeps returns addr ∪ data ∪ ctrl.
func legacyDeps(v *eg.View) *relation.Rel {
	return legacyDepAddr(v).Union(legacyDepData(v)).UnionWith(legacyDepCtrl(v))
}

// legacySeqFence returns the relation {(a,b) | a po f po b} for fences f
// of the given kinds — the building block of barrier-ordering relations.
func legacySeqFence(v *eg.View, kinds ...eg.FenceKind) *relation.Rel {
	want := map[eg.FenceKind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	fences := v.FilterIdx(func(e *eg.Event) bool { return e.Kind == eg.KFence && want[e.Fence] })
	r := v.Empty()
	po := v.Po()
	for _, f := range fences {
		for a := 0; a < v.N; a++ {
			if !po.Has(a, f) {
				continue
			}
			for b := 0; b < v.N; b++ {
				if po.Has(f, b) {
					r.Add(a, b)
				}
			}
		}
	}
	return r
}

// legacyRestrict returns r with all pairs removed whose source does not
// satisfy from or whose target does not satisfy to. Either predicate may
// be nil (no constraint).
func legacyRestrict(v *eg.View, r *relation.Rel, from, to func(eg.Event) bool) *relation.Rel {
	out := v.Empty()
	r.Pairs(func(a, b int) {
		if from != nil && !from(v.Events[a]) {
			return
		}
		if to != nil && !to(v.Events[b]) {
			return
		}
		out.Add(a, b)
	})
	return out
}

// ---- unit tests of the oracle's view helpers -----------------------------

// TestLegacyDeps checks the dependency relations: data and ctrl edges run
// from the read to the dependent event, and Deps is their union.
func TestLegacyDeps(t *testing.T) {
	// T0: r = R x; W y = r (data dep); branch on r then W z (ctrl dep).
	b := newGB(t, 1, 3)
	r := b.R(0, 0, eg.InitID(0))
	wy := b.W(0, 1, 0, dataDep(r))
	wz := b.W(0, 2, 1, ctrlDep(r))
	v := b.view()
	if !legacyDepData(v).Has(v.Idx(r), v.Idx(wy)) {
		t.Error("data dep missing")
	}
	if !legacyDepCtrl(v).Has(v.Idx(r), v.Idx(wz)) {
		t.Error("ctrl dep missing")
	}
	if legacyDepAddr(v).Len() != 0 {
		t.Error("no addr deps expected")
	}
	if legacyDeps(v).Len() != 2 {
		t.Errorf("Deps Len = %d, want 2", legacyDeps(v).Len())
	}
}

// TestLegacySeqFence checks po;[F];po for the named fence kinds only.
func TestLegacySeqFence(t *testing.T) {
	// T0: W x; F.full; R y — the fence orders Wx before Ry.
	b := newGB(t, 1, 2)
	w := b.W(0, x, 1)
	b.F(0, eg.FenceFull)
	r := b.R(0, y, eg.InitID(y))
	v := b.view()
	sf := legacySeqFence(v, eg.FenceFull)
	if !sf.Has(v.Idx(w), v.Idx(r)) {
		t.Error("fence ordering missing Wx -> Ry")
	}
	if sf.Has(v.Idx(r), v.Idx(w)) {
		t.Error("fence ordering must follow po direction")
	}
	if legacySeqFence(v, eg.FenceLW).Len() != 0 {
		t.Error("no lw fences present")
	}
}

// TestLegacyRestrict checks Restrict keeps exactly the pairs whose
// endpoints satisfy the predicates, and Rfi the same-thread rf edges.
func TestLegacyRestrict(t *testing.T) {
	// MP: T0: W x; W y. T1: R y (from T0's W y); R x (from init).
	b := newGB(t, 2, 2)
	b.W(0, x, 1)
	wy := b.W(0, y, 1)
	b.R(1, y, wy)
	b.R(1, x, eg.InitID(x))
	v := b.view()
	// po restricted to write sources only.
	wOnly := legacyRestrict(v, v.Po(), func(e eg.Event) bool { return e.Kind == eg.KWrite }, nil)
	wOnly.Pairs(func(a, b int) {
		if v.Events[a].Kind != eg.KWrite {
			t.Errorf("pair source %v is not a write", v.Events[a])
		}
	})
	if wOnly.Len() == 0 {
		t.Error("expected some write-sourced po pairs")
	}
	if legacyRfi(v).Len() != 0 {
		t.Errorf("MP has no internal rf, got %v", legacyRfi(v))
	}
	c := newGB(t, 1, 1)
	w := c.W(0, x, 1)
	rd := c.R(0, x, w)
	cv := c.view()
	if rfi := legacyRfi(cv); rfi.Len() != 1 || !rfi.Has(cv.Idx(w), cv.Idx(rd)) {
		t.Errorf("same-thread rf must be internal, got %v", rfi)
	}
}
