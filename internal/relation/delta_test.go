package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// addAll streams every pair of r into d and reports whether all edges
// were accepted (i.e. r is acyclic).
func addAll(d *DeltaRel, r *Rel) bool {
	ok := true
	r.Pairs(func(a, b int) {
		if ok && !d.AddEdgeAcyclic(a, b) {
			ok = false
		}
	})
	return ok
}

func TestDeltaBasic(t *testing.T) {
	d := NewDelta(3)
	if !d.AddEdgeAcyclic(0, 1) || !d.AddEdgeAcyclic(1, 2) {
		t.Fatal("chain edges rejected")
	}
	if d.AddEdgeAcyclic(2, 0) {
		t.Fatal("cycle-closing edge accepted")
	}
	if d.AddEdgeAcyclic(1, 1) {
		t.Fatal("self-loop accepted")
	}
	if !d.Has(0, 1) || !d.Has(1, 2) || d.Has(2, 0) {
		t.Fatal("edge set wrong after rejections")
	}
	if !d.AddEdgeAcyclic(0, 1) {
		t.Fatal("duplicate insert must be a true no-op")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if !d.AddEdgeAcyclic(0, 2) {
		t.Fatal("transitive edge rejected")
	}
}

// TestPropDeltaMatchesAcyclic pins the incremental verdict against the
// from-scratch oracles: streaming a relation's edges into a DeltaRel
// accepts them all iff Acyclic() (and iff the closure is irreflexive).
func TestPropDeltaMatchesAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, 1+rng.Intn(14), 0.15)
		d := NewDelta(r.Size())
		return addAll(d, r) == r.Acyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPropDeltaOrderIsTopological checks the maintained invariant: after
// any sequence of accepted insertions, ord is a valid topological order
// of the accepted edge set.
func TestPropDeltaOrderIsTopological(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(14)
		d := NewDelta(n)
		for k := 0; k < 3*n; k++ {
			d.AddEdgeAcyclic(rng.Intn(n), rng.Intn(n))
		}
		ok := true
		d.succ.Pairs(func(a, b int) {
			if d.ord[a] >= d.ord[b] {
				ok = false
			}
		})
		// ord must remain a permutation of 0..n-1.
		seen := make([]bool, n)
		for _, o := range d.ord {
			if o < 0 || o >= n || seen[o] {
				return false
			}
			seen[o] = true
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropDeltaRollback checks that Rollback restores both the edge set
// and the behaviour: after rolling back a batch of insertions, the
// structure accepts/rejects exactly like a fresh DeltaRel replaying the
// surviving prefix.
func TestPropDeltaRollback(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		base := randomRel(rng, n, 0.1)
		d := NewDelta(n)
		baseOK := addAll(d, base)
		mark := d.Snapshot()

		// A batch of random extra insertions, then roll them back.
		for k := 0; k < 2*n; k++ {
			d.AddEdgeAcyclic(rng.Intn(n), rng.Intn(n))
		}
		d.Rollback(mark)

		// The edge set must be exactly the accepted prefix of base.
		ref := NewDelta(n)
		refOK := addAll(ref, base)
		if baseOK != refOK || d.Len() != ref.Len() {
			return false
		}
		if !d.succ.Equal(ref.succ) || !d.pred.Equal(ref.pred) {
			return false
		}
		// And future insertions must behave identically.
		for k := 0; k < 2*n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if d.AddEdgeAcyclic(a, b) != ref.AddEdgeAcyclic(a, b) {
				return false
			}
		}
		return d.succ.Equal(ref.succ)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropDeltaSharedPrefix exercises the explorer's intended pattern:
// load common edges once, snapshot, then per alternative add its private
// edges, read the verdict and roll back. Every alternative's verdict must
// match a from-scratch check of base ∪ alternative.
func TestPropDeltaSharedPrefix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		base := randomRel(rng, n, 0.08)
		if !base.Acyclic() {
			return true // shared prefix must be acyclic to snapshot
		}
		d := NewDelta(n)
		if !addAll(d, base) {
			return false
		}
		mark := d.Snapshot()
		for alt := 0; alt < 6; alt++ {
			extra := randomRel(rng, n, 0.1)
			got := addAll(d, extra)
			want := base.Union(extra).Acyclic()
			d.Rollback(mark)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDeltaReset(t *testing.T) {
	d := NewDelta(4)
	d.AddEdgeAcyclic(0, 1)
	d.AddEdgeAcyclic(1, 2)
	d.Reset(4)
	if d.Len() != 0 || d.Has(0, 1) {
		t.Fatal("Reset did not clear the edge set")
	}
	if !d.AddEdgeAcyclic(2, 0) {
		t.Fatal("insert after Reset rejected")
	}
	d.Reset(7) // resize
	if d.Size() != 7 || d.Has(2, 0) {
		t.Fatal("resizing Reset did not clear")
	}
	if !d.AddEdgeAcyclic(6, 0) {
		t.Fatal("insert after resizing Reset rejected")
	}
}

func TestDeltaAddRelAcyclic(t *testing.T) {
	r := New(4)
	r.Add(0, 1)
	r.Add(1, 2)
	r.Add(2, 3)
	d := NewDelta(4)
	if !d.AddRelAcyclic(r) {
		t.Fatal("acyclic relation rejected")
	}
	r.Add(3, 0)
	d.Reset(4)
	if d.AddRelAcyclic(r) {
		t.Fatal("cyclic relation accepted")
	}
}

// FuzzDeltaAcyclic drives a DeltaRel with a random add/snapshot/rollback
// program and checks, after every operation, that the accepted edge set
// matches a recompute-from-scratch model: verdicts equal the oracle's
// Acyclic() on the model relation, and rollbacks restore it exactly.
func FuzzDeltaAcyclic(f *testing.F) {
	f.Add([]byte{8, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{5, 0, 1, 0xFE, 1, 2, 0xFF, 2, 0})
	f.Add([]byte{3, 0, 1, 1, 0, 0xFE, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%16)
		d := NewDelta(n)
		model := New(n) // accepted edges, recomputed oracle
		type snap struct {
			mark  Mark
			model *Rel
		}
		var snaps []snap
		i := 1
		for i < len(data) {
			op := data[i]
			switch {
			case op == 0xFE: // snapshot
				snaps = append(snaps, snap{mark: d.Snapshot(), model: model.Clone()})
				i++
			case op == 0xFF: // rollback to the latest snapshot
				if len(snaps) > 0 {
					s := snaps[len(snaps)-1]
					snaps = snaps[:len(snaps)-1]
					d.Rollback(s.mark)
					model = s.model
				}
				i++
			case i+1 < len(data): // add edge
				a, b := int(op)%n, int(data[i+1])%n
				i += 2
				wouldCycle := func() bool {
					if a == b {
						return true
					}
					c := model.Clone()
					c.Add(a, b)
					return !c.Acyclic()
				}()
				got := d.AddEdgeAcyclic(a, b)
				if got == wouldCycle {
					t.Fatalf("AddEdgeAcyclic(%d,%d) = %v, oracle cycle = %v (n=%d, model %v)",
						a, b, got, wouldCycle, n, model)
				}
				if got {
					model.Add(a, b)
				}
			default:
				i = len(data)
			}
			if d.Len() != model.Len() {
				t.Fatalf("edge count drifted: delta %d vs model %d", d.Len(), model.Len())
			}
		}
		// Final sanity: the maintained order is topological for the model.
		model.Pairs(func(a, b int) {
			if d.ord[a] >= d.ord[b] {
				t.Fatalf("ord[%d]=%d !< ord[%d]=%d for accepted edge", a, d.ord[a], b, d.ord[b])
			}
		})
	})
}

// TestPropDeltaOrder checks the exported order: a permutation of the
// universe in which every accepted edge runs forward, and closing the edge
// set by UnionRow along its reverse yields the transitive closure.
func TestPropDeltaOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(70) // spans multi-word rows
		d := NewDelta(n)
		for k := 0; k < 3*n; k++ {
			d.AddEdgeAcyclic(rng.Intn(n), rng.Intn(n))
		}
		order := d.Order(make([]int, 0, 2))
		if len(order) != n {
			return false
		}
		pos := make([]int, n)
		seen := make([]bool, n)
		for i, v := range order {
			if seen[v] {
				return false
			}
			seen[v] = true
			pos[v] = i
		}
		ok := true
		d.succ.Pairs(func(a, b int) {
			if pos[a] >= pos[b] {
				ok = false
			}
		})
		reach := d.succ.Clone()
		for i := n - 1; i >= 0; i-- {
			a := order[i]
			d.succ.Successors(a, func(b int) { reach.UnionRow(a, b) })
		}
		return ok && reach.Equal(d.succ.Closure())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
