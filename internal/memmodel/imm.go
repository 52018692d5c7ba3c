package memmodel

import (
	"hmc/internal/eg"
	"hmc/internal/relation"
)

// IMM is "IMM-lite": a dependency-aware hardware memory model in the style
// of IMM (Podkopaev, Lahav, Vafeiadis, POPL'19) and the POWER/ARM models it
// abstracts. It is the model the HMC reproduction targets: unlike SC/TSO/
// PSO/RA it permits (po ∪ rf) cycles — load buffering without dependencies
// is observable — while syntactic dependencies and barriers restore order.
//
// Axioms (beyond shared coherence and atomicity):
//
//	ppo  := [R];(addr ∪ data ∪ ctrl∩(→W) ∪ rfi)⁺      (dependency chains,
//	        extended through store-to-load forwarding, always starting at
//	        a read: loads create order, stores do not)
//	bob  := po;[Ffull];po                              (full barrier)
//	      ∪ po;[Flw];po minus W→R                      (lwsync-like)
//	      ∪ [R];po;[Fld];po                            (load barrier)
//	hb   := (ppo ∪ bob ∪ rfe)⁺
//	prop := acyclic(co ∪ hb)                           (no thin air +
//	        barrier-ordered store propagation, e.g. 2+2W+lwsync)
//	obs  := irreflexive(hb ; eco)                      (observation /
//	        fenced or dependency-ordered message passing)
//	psc  := acyclic([Ffull];(po ∪ po;eco;po);[Ffull])  (full fences are
//	        SC fences: restores SB and IRIW)
//
// The model is POWER-flavoured (non-multi-copy-atomic): IRIW with only
// dependencies or lwsync remains allowed; IRIW with full fences is
// forbidden via psc. The litmus corpus in internal/litmus pins this
// behaviour matrix.
//
// The predicate closes no relation for the first three axioms. co, common
// to coherence and prop, is loaded into one pooled DeltaRel and shared via
// snapshot/rollback; prop streams ppo ∪ bob ∪ rfe on top of it, since
// acyclic(co ∪ hb) = acyclic(co ∪ ppo ∪ bob ∪ rfe); obs walks
// hb-reachability in the topological order prop leaves behind. Only psc,
// which needs two full fences, still builds eco. The materialized
// formulation is the test oracle in legacy_test.go.
type IMM struct{}

// Name implements Model.
func (IMM) Name() string { return "imm" }

// Consistent implements Model.
func (IMM) Consistent(v *eg.View) bool {
	if !Atomic(v) {
		return false
	}
	s := getScratch(v.N)
	defer putScratch(s)
	d := s.d
	if !d.AddRelAcyclic(v.Co()) {
		return false
	}
	mark := d.Snapshot()
	if !d.AddRelAcyclic(v.Fr()) || !d.AddRelAcyclic(v.PoLoc()) || !d.AddRelAcyclic(v.Rf()) {
		return false // incoherent
	}
	d.Rollback(mark)
	rfSrc := s.rfSources(v)
	ord := preservedOrder(v, rfSrc)
	addRfe(v, ord, rfSrc)
	if !d.AddRelAcyclic(ord) {
		return false // thin air or barrier-ordered propagation violation
	}
	if !immObserves(v, s, ord, s.ecoKeys(v, rfSrc)) {
		return false // observation violation (e.g. fenced message passing)
	}
	return pscAcyclic(v)
}

// immObserves decides obs, irreflexive(hb ; eco), from ord = ppo ∪ bob ∪
// rfe and the eco keys, building neither hb nor eco. Within a location eco
// is the strict order of the keys (see ecoKeys), so obs fails exactly when
// some event a reaches, through hb, an event b at its own location with a
// smaller key. ord is closed in place into hb one row at a time, in
// reverse of d's topological order (d holds ord once prop has passed, so
// every successor's row is final before its predecessors read it), and
// each a is tested as soon as its row is.
func immObserves(v *eg.View, s *scratch, ord *relation.Rel, key []int) bool {
	s.order = s.d.Order(s.order)
	for i := len(s.order) - 1; i >= 0; i-- {
		a := s.order[i]
		ord.Successors(a, func(b int) { ord.UnionRow(a, b) })
		ka := key[a]
		if ka < 0 {
			continue
		}
		loc := v.Events[a].Loc
		ok := true
		ord.Successors(a, func(b int) {
			if kb := key[b]; kb >= 0 && kb < ka && v.Events[b].Loc == loc {
				ok = false
			}
		})
		if !ok {
			return false
		}
	}
	return true
}

// preservedOrder returns ppo ∪ bob, the thread-local order IMM-lite and
// ARMv8-lite share, built thread block by thread block:
//
//   - ppo: row r, for each read r, holds the events a chain of addr ∪ data
//     ∪ ctrl∩(→W) ∪ rfi steps reaches from r. Every step runs po-forward
//     inside r's thread (dependencies name po-earlier reads, and rfi is
//     po-forward once coherence holds), so one ascending scan of the block
//     decides each event from its step predecessors, read off the Event by
//     pointer and rfSrc.
//   - bob: for each fence f, the pairs a po f po b its kind orders — all
//     of them for a full fence, all but W→R for lw, those from a read for
//     ld — filled row by row with AddRange.
//
// Init events are left out as sources: nothing is ordered before them, so
// their edges close no cycle and start no hb;eco violation.
func preservedOrder(v *eg.View, rfSrc []int) *relation.Rel {
	ord := v.Empty()
	for t := 0; t < v.G.NumThreads(); t++ {
		lo, hi := v.ThreadRange(t)
		for r := lo; r < hi; r++ {
			if !v.Events[r].Kind.IsRead() {
				continue
			}
			for y := r + 1; y < hi; y++ {
				if ppoStep(v, ord, rfSrc, lo, r, y) {
					ord.Add(r, y)
				}
			}
		}
		for f := lo; f < hi; f++ {
			if v.Events[f].Kind != eg.KFence {
				continue
			}
			switch v.Events[f].Fence {
			case eg.FenceFull:
				for a := lo; a < f; a++ {
					ord.AddRange(a, f+1, hi)
				}
			case eg.FenceLD:
				for a := lo; a < f; a++ {
					if v.Events[a].Kind.IsRead() {
						ord.AddRange(a, f+1, hi)
					}
				}
			case eg.FenceLW:
				for a := lo; a < f; a++ {
					if v.Events[a].Kind != eg.KWrite {
						ord.AddRange(a, f+1, hi)
						continue
					}
					for b := f + 1; b < hi; b++ {
						if v.Events[b].Kind != eg.KRead {
							ord.Add(a, b)
						}
					}
				}
			}
		}
	}
	return ord
}

// ppoStep reports whether event y (in the thread block starting at lo) has
// a ppo step predecessor that is r or already reached from r.
func ppoStep(v *eg.View, ord *relation.Rel, rfSrc []int, lo, r, y int) bool {
	e := &v.Events[y]
	if reachedVia(v, ord, r, e.Addr) || reachedVia(v, ord, r, e.Data) ||
		(e.Kind.IsWrite() && reachedVia(v, ord, r, e.Ctrl)) {
		return true
	}
	src := rfSrc[y] // rfi: y reads from a write of its own thread
	return src >= lo && src < y && (src == r || ord.Has(r, src))
}

// reachedVia reports whether some event of deps is r or reached from r.
func reachedVia(v *eg.View, ord *relation.Rel, r int, deps []eg.EvID) bool {
	for _, id := range deps {
		if x := v.Idx(id); x == r || ord.Has(r, x) {
			return true
		}
	}
	return false
}

// rfSources fills and returns s.rfSrc: the dense index of each read's rf
// source, -1 for every other event.
func (s *scratch) rfSources(v *eg.View) []int {
	s.rfSrc = fill(s.rfSrc, v.N, -1)
	src, rf := s.rfSrc, v.Rf()
	for w := range v.Events {
		if v.Events[w].Kind.IsWrite() {
			rf.Successors(w, func(r int) { src[r] = w })
		}
	}
	return src
}

// addRfe adds external reads-from, read off rfSrc, to dst: the same pairs
// as the view's Rfe, without building that relation.
func addRfe(v *eg.View, dst *relation.Rel, rfSrc []int) {
	for r, w := range rfSrc {
		if w >= 0 && v.Events[w].ID.T != v.Events[r].ID.T {
			dst.Add(w, r)
		}
	}
}

// ecoKeys fills and returns s.key: a position for each memory event on
// its location's coherence order, such that eco(b, a) iff b and a access
// the same location and key(b) < key(a). Writes and updates sit at twice
// their coherence position (init at 0), and a plain read one past the
// write it reads from. This holds once atomicity and coherence do: eco is
// then (co ∪ fr)?;rf? minus identity, which the keys order exactly.
// Fences, and reads without an rf source, get -1.
func (s *scratch) ecoKeys(v *eg.View, rfSrc []int) []int {
	s.key = fill(s.key, v.N, -1)
	key := s.key
	for l := 0; l < v.G.NumLocs(); l++ {
		key[v.Idx(eg.InitID(eg.Loc(l)))] = 0
		for i, w := range v.G.CoLoc(eg.Loc(l)) {
			key[v.Idx(w)] = 2 * (i + 1)
		}
	}
	for r := range v.Events {
		if v.Events[r].Kind == eg.KRead && rfSrc[r] >= 0 && key[rfSrc[r]] >= 0 {
			key[r] = key[rfSrc[r]] + 1
		}
	}
	return key
}

// fill returns buf resized to n with every entry set to x, reusing its
// storage when it is large enough.
func fill(buf []int, n, x int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = x
	}
	return buf
}

// pscAcyclic checks the SC-fence axiom: the order
// [Ffull];(po ∪ po;eco;po);[Ffull] between full fences must be acyclic.
func pscAcyclic(v *eg.View) bool {
	isFull := func(e *eg.Event) bool { return e.Kind == eg.KFence && e.Fence == eg.FenceFull }
	fences := v.FilterIdx(isFull)
	if len(fences) < 2 {
		return true
	}
	po := v.Po()
	poEcoPo := po.Compose(v.Eco()).Compose(po)
	step := po.Union(poEcoPo)
	psc := v.Empty()
	for _, f := range fences {
		for _, g := range fences {
			if f != g && step.Has(f, g) {
				psc.Add(f, g)
			}
		}
	}
	return psc.Acyclic()
}
