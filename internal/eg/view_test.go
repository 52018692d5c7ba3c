package eg

import "testing"

func TestViewIndexingOrder(t *testing.T) {
	g := buildMP(t)
	v := NewView(g)
	if v.N != 6 { // 2 init + 4 thread events
		t.Fatalf("N = %d, want 6", v.N)
	}
	if v.Idx(InitID(0)) != 0 || v.Idx(InitID(1)) != 1 {
		t.Fatal("init events must come first in dense order")
	}
	if v.Idx(EvID{T: 0, I: 0}) != 2 || v.Idx(EvID{T: 1, I: 1}) != 5 {
		t.Fatal("thread events must follow in (thread,index) order")
	}
}

func TestViewPo(t *testing.T) {
	g := buildMP(t)
	v := NewView(g)
	po := v.Po()
	// Same-thread ordering.
	if !po.Has(v.Idx(EvID{T: 0, I: 0}), v.Idx(EvID{T: 0, I: 1})) {
		t.Error("po missing t0:0 -> t0:1")
	}
	if po.Has(v.Idx(EvID{T: 0, I: 1}), v.Idx(EvID{T: 0, I: 0})) {
		t.Error("po must not be symmetric")
	}
	// Cross-thread events unrelated.
	if po.Has(v.Idx(EvID{T: 0, I: 0}), v.Idx(EvID{T: 1, I: 0})) {
		t.Error("po must not relate different threads")
	}
	// Init before everything.
	if !po.Has(v.Idx(InitID(0)), v.Idx(EvID{T: 1, I: 1})) {
		t.Error("init must be po-before thread events")
	}
	if po.Has(v.Idx(InitID(0)), v.Idx(InitID(1))) {
		t.Error("init events unrelated to each other")
	}
}

func TestViewPoLoc(t *testing.T) {
	g := buildMP(t)
	v := NewView(g)
	pl := v.PoLoc()
	// W x (t0:0) and W y (t0:1) touch different locations.
	if pl.Has(v.Idx(EvID{T: 0, I: 0}), v.Idx(EvID{T: 0, I: 1})) {
		t.Error("poloc must not relate accesses of different locations")
	}
	// init x before R x in t1.
	if !pl.Has(v.Idx(InitID(0)), v.Idx(EvID{T: 1, I: 1})) {
		t.Error("poloc missing init x -> R x")
	}
	if pl.Has(v.Idx(InitID(0)), v.Idx(EvID{T: 1, I: 0})) {
		t.Error("poloc must not relate init x to R y")
	}
}

func TestViewRfSplit(t *testing.T) {
	g := buildMP(t)
	v := NewView(g)
	rf := v.Rf()
	if rf.Len() != 2 {
		t.Fatalf("rf Len = %d, want 2", rf.Len())
	}
	if !rf.Has(v.Idx(EvID{T: 0, I: 1}), v.Idx(EvID{T: 1, I: 0})) {
		t.Error("rf missing Wy -> Ry")
	}
	// Both rf edges are external here.
	if v.Rfe().Len() != 2 {
		t.Errorf("rfe Len = %d, want 2", v.Rfe().Len())
	}
}

func TestViewRfiInternal(t *testing.T) {
	g := NewGraph(1, 1)
	w := Event{ID: EvID{T: 0, I: 0}, Kind: KWrite, Loc: 0, Val: 1}
	r := Event{ID: EvID{T: 0, I: 1}, Kind: KRead, Loc: 0}
	g.Add(w)
	g.CoInsert(0, 0, w.ID)
	g.Add(r)
	g.SetRF(r.ID, w.ID)
	v := NewView(g)
	if v.Rf().Len() != 1 || v.Rfe().Len() != 0 {
		t.Fatalf("same-thread rf must be internal: rf=%d rfe=%d", v.Rf().Len(), v.Rfe().Len())
	}
}

func TestViewCoAndFr(t *testing.T) {
	g := buildMP(t)
	v := NewView(g)
	co := v.Co()
	// init x -> W x and init y -> W y.
	if !co.Has(v.Idx(InitID(0)), v.Idx(EvID{T: 0, I: 0})) {
		t.Error("co missing init x -> Wx")
	}
	if co.Len() != 2 {
		t.Errorf("co Len = %d, want 2", co.Len())
	}
	fr := v.Fr()
	// rx reads init x; Wx is co-after init x, so rx fr Wx.
	if !fr.Has(v.Idx(EvID{T: 1, I: 1}), v.Idx(EvID{T: 0, I: 0})) {
		t.Error("fr missing Rx -> Wx")
	}
	// ry reads the co-maximal write to y: no fr edge from ry.
	found := false
	fr.Successors(v.Idx(EvID{T: 1, I: 0}), func(int) { found = true })
	if found {
		t.Error("ry reads latest write, must have no fr successors")
	}
}

func TestViewFrUpdateNotReflexive(t *testing.T) {
	// T0: U x (CAS) reading from init and writing 1. fr must not contain (u,u).
	g := NewGraph(1, 1)
	u := Event{ID: EvID{T: 0, I: 0}, Kind: KUpdate, Loc: 0, Val: 1}
	g.Add(u)
	g.CoInsert(0, 0, u.ID)
	g.SetRF(u.ID, InitID(0))
	v := NewView(g)
	if !v.Fr().Irreflexive() {
		t.Fatal("fr contains a reflexive pair for the update")
	}
}

func TestViewEcoTransitive(t *testing.T) {
	g := buildMP(t)
	v := NewView(g)
	eco := v.Eco()
	// rx fr Wx (direct) — and eco is transitive over rf∪co∪fr.
	if !eco.Has(v.Idx(EvID{T: 1, I: 1}), v.Idx(EvID{T: 0, I: 0})) {
		t.Error("eco missing rx -> Wx")
	}
	// init x co Wx, so init x eco rx? No: eco goes init->Wx, Wx has no rf
	// to rx. But init x rf rx directly.
	if !eco.Has(v.Idx(InitID(0)), v.Idx(EvID{T: 1, I: 1})) {
		t.Error("eco missing init x -> rx (rf)")
	}
}

func TestViewThreadRange(t *testing.T) {
	g := buildMP(t)
	v := NewView(g)
	for th := 0; th < 2; th++ {
		lo, hi := v.ThreadRange(th)
		if hi-lo != g.ThreadLen(th) {
			t.Fatalf("thread %d range [%d,%d) holds %d events, want %d", th, lo, hi, hi-lo, g.ThreadLen(th))
		}
		for i := lo; i < hi; i++ {
			if v.Events[i].ID != (EvID{T: th, I: i - lo}) {
				t.Errorf("dense %d = %v, want t%d:%d", i, v.Events[i].ID, th, i-lo)
			}
		}
	}
}
