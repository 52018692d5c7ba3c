package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddHasRemove(t *testing.T) {
	r := New(5)
	if r.Has(1, 2) {
		t.Fatal("empty relation should not contain (1,2)")
	}
	r.Add(1, 2)
	if !r.Has(1, 2) {
		t.Fatal("(1,2) missing after Add")
	}
	if r.Has(2, 1) {
		t.Fatal("relation should not be symmetric")
	}
	r.Remove(1, 2)
	if r.Has(1, 2) {
		t.Fatal("(1,2) present after Remove")
	}
}

func TestLen(t *testing.T) {
	r := New(10)
	pairs := [][2]int{{0, 1}, {1, 2}, {9, 0}, {9, 0}, {3, 3}}
	for _, p := range pairs {
		r.Add(p[0], p[1])
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 (duplicate Add must not double-count)", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	New(3).Add(0, 3)
}

func TestUnionIntersectMinus(t *testing.T) {
	a := New(4)
	a.Add(0, 1)
	a.Add(1, 2)
	b := New(4)
	b.Add(1, 2)
	b.Add(2, 3)

	u := a.Union(b)
	for _, p := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if !u.Has(p[0], p[1]) {
			t.Errorf("union missing %v", p)
		}
	}
	if u.Len() != 3 {
		t.Errorf("union Len = %d, want 3", u.Len())
	}

	i := a.Intersect(b)
	if i.Len() != 1 || !i.Has(1, 2) {
		t.Errorf("intersect = %v, want {(1,2)}", i)
	}

	m := a.Minus(b)
	if m.Len() != 1 || !m.Has(0, 1) {
		t.Errorf("minus = %v, want {(0,1)}", m)
	}

	// Operands untouched.
	if a.Len() != 2 || b.Len() != 2 {
		t.Error("Union/Intersect/Minus mutated an operand")
	}
}

func TestCompose(t *testing.T) {
	r := New(4)
	r.Add(0, 1)
	r.Add(1, 2)
	r.Add(2, 3)
	c := r.Compose(r)
	want := [][2]int{{0, 2}, {1, 3}}
	if c.Len() != len(want) {
		t.Fatalf("compose Len = %d, want %d: %v", c.Len(), len(want), c)
	}
	for _, p := range want {
		if !c.Has(p[0], p[1]) {
			t.Errorf("compose missing %v", p)
		}
	}
}

func TestInverse(t *testing.T) {
	r := New(3)
	r.Add(0, 2)
	r.Add(1, 2)
	inv := r.Inverse()
	if !inv.Has(2, 0) || !inv.Has(2, 1) || inv.Len() != 2 {
		t.Fatalf("inverse wrong: %v", inv)
	}
	if !inv.Inverse().Equal(r) {
		t.Fatal("double inverse is not identity")
	}
}

func TestClosureChain(t *testing.T) {
	r := New(5)
	for i := 0; i < 4; i++ {
		r.Add(i, i+1)
	}
	c := r.Closure()
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if !c.Has(i, j) {
				t.Errorf("closure missing (%d,%d)", i, j)
			}
		}
	}
	if c.Len() != 10 {
		t.Errorf("closure Len = %d, want 10", c.Len())
	}
}

func TestAcyclic(t *testing.T) {
	r := New(4)
	r.Add(0, 1)
	r.Add(1, 2)
	r.Add(2, 3)
	if !r.Acyclic() {
		t.Fatal("chain should be acyclic")
	}
	r.Add(3, 1)
	if r.Acyclic() {
		t.Fatal("3→1 closes a cycle")
	}
}

func TestAcyclicSelfLoop(t *testing.T) {
	r := New(2)
	r.Add(1, 1)
	if r.Acyclic() {
		t.Fatal("self loop is a cycle")
	}
}

func TestAcyclicEmptyAndSingleton(t *testing.T) {
	if !New(0).Acyclic() {
		t.Error("empty universe must be acyclic")
	}
	if !New(1).Acyclic() {
		t.Error("singleton with no edges must be acyclic")
	}
}

func TestTopoSort(t *testing.T) {
	r := New(5)
	edges := [][2]int{{0, 2}, {1, 2}, {2, 3}, {3, 4}}
	for _, e := range edges {
		r.Add(e[0], e[1])
	}
	order, ok := r.TopoSort()
	if !ok {
		t.Fatal("acyclic graph must topo-sort")
	}
	pos := make([]int, 5)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range edges {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %v violated by order %v", e, order)
		}
	}
	r.Add(4, 0)
	if _, ok := r.TopoSort(); ok {
		t.Fatal("cyclic graph must not topo-sort")
	}
}

func TestReachableFrom(t *testing.T) {
	r := New(6)
	r.Add(0, 1)
	r.Add(1, 2)
	r.Add(3, 4)
	seen := r.ReachableFrom(0)
	want := []bool{true, true, true, false, false, false}
	for i, w := range want {
		if seen[i] != w {
			t.Errorf("reach[%d] = %v, want %v", i, seen[i], w)
		}
	}
	seen = r.ReachableFrom(0, 3)
	if !seen[4] || seen[5] {
		t.Errorf("multi-seed reach wrong: %v", seen)
	}
}

func TestIrreflexive(t *testing.T) {
	r := New(3)
	r.Add(0, 1)
	if !r.Irreflexive() {
		t.Fatal("no diagonal pair present")
	}
	r.Add(2, 2)
	if r.Irreflexive() {
		t.Fatal("(2,2) present")
	}
}

func TestStringAndEqual(t *testing.T) {
	r := New(3)
	r.Add(2, 0)
	r.Add(0, 1)
	if got := r.String(); got != "{(0,1) (2,0)}" {
		t.Errorf("String = %q", got)
	}
	if !r.Equal(r.Clone()) {
		t.Error("clone not equal to original")
	}
	o := New(4)
	if r.Equal(o) {
		t.Error("different universes must not be equal")
	}
}

// randomRel builds a pseudo-random relation over n nodes with edge
// probability p, for property tests.
func randomRel(rng *rand.Rand, n int, p float64) *Rel {
	r := New(n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if rng.Float64() < p {
				r.Add(a, b)
			}
		}
	}
	return r
}

func TestPropClosureIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, 1+rng.Intn(12), 0.2)
		c := r.Closure()
		return c.Closure().Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropAcyclicIffTopoSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, 1+rng.Intn(12), 0.15)
		_, ok := r.TopoSort()
		if ok != r.Acyclic() {
			return false
		}
		// The incremental checker must agree with both from-scratch
		// oracles: streaming r's edges into a DeltaRel accepts them all
		// iff the relation is acyclic.
		d := NewDelta(r.Size())
		return d.AddRelAcyclic(r) == ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestArenaRelOps(t *testing.T) {
	var a Arena
	a.Reset()
	r := a.New(6)
	r.Add(0, 1)
	r.Add(1, 2)
	u := r.Union(r.Inverse()) // derived relations come from the arena
	if u.arena != &a {
		t.Fatal("derived relation did not inherit the arena")
	}
	if !u.Has(0, 1) || !u.Has(1, 0) || !u.Has(2, 1) {
		t.Fatal("arena-backed ops computed the wrong pairs")
	}
	heap := New(6)
	heap.Add(3, 4)
	if got := r.Union(heap); !got.Has(3, 4) || !got.Has(0, 1) {
		t.Fatal("mixed arena/heap union wrong")
	}
	a.Reset()
	fresh := a.New(6)
	if fresh.Len() != 0 {
		t.Fatal("arena Reset leaked pairs into a fresh relation")
	}
	// Overflow the slab: allocations past the slab fall back to the heap
	// and still behave like relations.
	big := a.New(600)
	big.Add(599, 0)
	if !big.Has(599, 0) || big.Clone().Len() != 1 {
		t.Fatal("overflow allocation misbehaved")
	}
}

// TestArenaResultsMatchHeap cross-checks a composite expression computed
// with arena-backed and heap-backed relations.
func TestArenaResultsMatchHeap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		h1, h2 := randomRel(rng, n, 0.3), randomRel(rng, n, 0.3)
		var a Arena
		a.Reset()
		a1, a2 := a.New(n), a.New(n)
		a1.UnionWith(h1)
		a2.UnionWith(h2)
		want := h1.Union(h2).Compose(h1.Inverse()).Closure()
		got := a1.Union(a2).Compose(a1.Inverse()).Closure()
		return got.Equal(want) && got.Acyclic() == want.Acyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropAcyclicIffClosureIrreflexive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, 1+rng.Intn(10), 0.2)
		return r.Acyclic() == r.Closure().Irreflexive()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropComposeAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a, b, c := randomRel(rng, n, 0.3), randomRel(rng, n, 0.3), randomRel(rng, n, 0.3)
		return a.Compose(b).Compose(c).Equal(a.Compose(b.Compose(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropUnionCommutativeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a, b := randomRel(rng, n, 0.3), randomRel(rng, n, 0.3)
		return a.Union(b).Equal(b.Union(a)) && a.Union(a).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropClosureContainsCompositions(t *testing.T) {
	// r ∪ r;r ⊆ closure(r)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, 1+rng.Intn(10), 0.2)
		c := r.Closure()
		return r.Union(r.Compose(r)).Minus(c).Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropInverseDistributesOverUnion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a, b := randomRel(rng, n, 0.3), randomRel(rng, n, 0.3)
		return a.Union(b).Inverse().Equal(a.Inverse().Union(b.Inverse()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropAddRangeMatchesAdds pins the word-mask interval fill against the
// per-bit loop across word boundaries and universe sizes.
func TestPropAddRangeMatchesAdds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200) // spans multi-word rows
		a := rng.Intn(n)
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n+1-lo)
		fast := New(n)
		fast.AddRange(a, lo, hi)
		slow := New(n)
		for b := lo; b < hi; b++ {
			slow.Add(a, b)
		}
		return fast.Equal(slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAddRangePreservesExistingBits checks AddRange only ever sets bits.
func TestAddRangePreservesExistingBits(t *testing.T) {
	r := New(130)
	r.Add(0, 1)
	r.Add(0, 129)
	r.AddRange(0, 64, 128)
	if !r.Has(0, 1) || !r.Has(0, 129) {
		t.Fatal("AddRange cleared pre-existing bits")
	}
	if r.Has(0, 63) || r.Has(0, 128) {
		t.Fatal("AddRange set bits outside [lo,hi)")
	}
	for b := 64; b < 128; b++ {
		if !r.Has(0, b) {
			t.Fatalf("AddRange missed bit %d", b)
		}
	}
}

// TestUnionRow checks UnionRow ORs exactly one row into another, across a
// word boundary, leaving every other row alone.
func TestUnionRow(t *testing.T) {
	r := New(130)
	r.Add(1, 2)
	r.Add(1, 129)
	r.Add(0, 5)
	r.UnionRow(0, 1)
	for _, b := range []int{2, 5, 129} {
		if !r.Has(0, b) {
			t.Errorf("row 0 missing %d after UnionRow", b)
		}
	}
	if r.Len() != 5 || !r.Has(1, 2) || !r.Has(1, 129) {
		t.Errorf("UnionRow touched the source row or other rows: %v", r)
	}
}
