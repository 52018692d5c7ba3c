package eg

import (
	"testing"

	"hmc/internal/relation"
)

// TestEcoMemoized pins satellite behaviour: Eco, like the sibling
// accessors, must hand back the same relation on repeated calls instead of
// recomputing the closure.
func TestEcoMemoized(t *testing.T) {
	v := NewView(buildMP(t))
	if v.Eco() != v.Eco() {
		t.Fatal("Eco() recomputes: repeated calls returned distinct relations")
	}
	// And it is still the right relation.
	want := v.Rf().Union(v.Co()).UnionWith(v.Fr()).TransitiveClose()
	if !v.Eco().Equal(want) {
		t.Fatalf("memoized Eco = %v, want %v", v.Eco(), want)
	}
}

// viewRels enumerates every exposed relation of a view, for equivalence
// checks between pooled and heap-backed views.
func viewRels(v *View) map[string]*relation.Rel {
	return map[string]*relation.Rel{
		"po":    v.Po(),
		"poloc": v.PoLoc(),
		"rf":    v.Rf(),
		"rfe":   v.Rfe(),
		"co":    v.Co(),
		"fr":    v.Fr(),
		"eco":   v.Eco(),
	}
}

// TestPooledViewMatchesHeapView checks GetView is a faithful drop-in for
// NewView across reuse cycles: same dense layout, same relations, even
// when the pooled view is recycled between graphs of different shapes.
func TestPooledViewMatchesHeapView(t *testing.T) {
	g1 := buildMP(t)
	g2 := NewGraph(1, 3) // different shape to force re-init of buffers
	w := Event{ID: EvID{T: 0, I: 0}, Kind: KWrite, Loc: 2, Val: 7}
	g2.Add(w)
	g2.CoInsert(2, 0, w.ID)

	for round := 0; round < 3; round++ {
		for _, g := range []*Graph{g1, g2} {
			ref := NewView(g)
			pv := GetView(g)
			if pv.N != ref.N {
				t.Fatalf("pooled view N=%d, heap view N=%d", pv.N, ref.N)
			}
			for i := range ref.Events {
				if pv.Events[i].ID != ref.Events[i].ID {
					t.Fatalf("dense order diverged at %d: %v vs %v", i, pv.Events[i].ID, ref.Events[i].ID)
				}
				if pv.Idx(ref.Events[i].ID) != i {
					t.Fatalf("Idx(%v) = %d, want %d", ref.Events[i].ID, pv.Idx(ref.Events[i].ID), i)
				}
			}
			got, want := viewRels(pv), viewRels(ref)
			for name, r := range want {
				if !got[name].Equal(r) {
					t.Fatalf("round %d: pooled %s = %v, want %v", round, name, got[name], r)
				}
			}
			PutView(pv)
		}
	}
	// PutView on a heap view is a documented no-op.
	PutView(NewView(g1))
	PutView(nil)
}

// TestViewIdxPanicsOnAbsent keeps the arithmetic Idx as strict as the old
// map lookup: unknown events must panic, not alias a valid index.
func TestViewIdxPanicsOnAbsent(t *testing.T) {
	v := NewView(buildMP(t))
	for _, id := range []EvID{
		{T: 5, I: 0},           // unknown thread
		{T: 0, I: 99},          // index past thread end
		{T: 0, I: -1},          // negative index
		InitID(9),              // unknown location
		{T: InitThread, I: -4}, // negative init location
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Idx(%v) did not panic", id)
				}
			}()
			v.Idx(id)
		}()
	}
}

// BenchmarkEcoTwicePerCheck measures a model-shaped access pattern: two
// Eco() consultations against one view (RC11's coherence + sc-fence axioms
// do exactly this). Memoization makes the second call free.
func BenchmarkEcoTwicePerCheck(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := NewView(g)
		r1 := v.Eco()
		r2 := v.Eco()
		if r1.Len() != r2.Len() {
			b.Fatal("eco mismatch")
		}
	}
}

// BenchmarkPooledView measures the pooled-view fast path used by the
// explorer's consistency checks.
func BenchmarkPooledView(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := GetView(g)
		_ = v.Eco()
		PutView(v)
	}
}

// benchGraph builds a medium store-buffer-like execution for benchmarks.
func benchGraph() *Graph {
	const threads, locs = 4, 4
	g := NewGraph(threads, locs)
	for t := 0; t < threads; t++ {
		l := Loc(t % locs)
		w := Event{ID: EvID{T: t, I: 0}, Kind: KWrite, Loc: l, Val: 1}
		g.Add(w)
		g.CoInsert(l, 0, w.ID)
		r := Event{ID: EvID{T: t, I: 1}, Kind: KRead, Loc: Loc((t + 1) % locs)}
		g.Add(r)
		g.SetRF(r.ID, InitID(r.Loc))
	}
	return g
}
