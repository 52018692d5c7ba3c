package eg

import (
	"testing"
)

// snapshotKeyAndWF returns the graph's canonical key after checking
// well-formedness — the observable identity COW must preserve.
func snapshotKeyAndWF(t *testing.T, g *Graph) string {
	t.Helper()
	if err := g.CheckWellFormed(); err != nil {
		t.Fatalf("well-formedness: %v", err)
	}
	return g.Key()
}

// TestCloneCOWIsolation exercises every mutator against a clone and checks
// the parent is untouched (and vice versa): Clone shares structure, so any
// missing copy-on-write hook shows up as cross-graph corruption here.
func TestCloneCOWIsolation(t *testing.T) {
	const x, y = Loc(0), Loc(1)

	t.Run("AddDoesNotLeakToParent", func(t *testing.T) {
		g := buildMP(t)
		key := snapshotKeyAndWF(t, g)
		c := g.Clone()
		w2 := Event{ID: EvID{T: 0, I: 2}, Kind: KWrite, Loc: x, Val: 2}
		c.Add(w2)
		c.CoInsert(x, 1, w2.ID)
		if got := snapshotKeyAndWF(t, g); got != key {
			t.Fatalf("parent changed by clone's Add:\n%s\nvs\n%s", got, key)
		}
		if c.NumEvents() != g.NumEvents()+1 {
			t.Fatalf("clone did not gain the event")
		}
	})

	t.Run("SiblingAppendsDoNotCollide", func(t *testing.T) {
		// Two clones of the same parent both append to the same thread:
		// without copy-on-write of the shared backing array, the second
		// append would overwrite the first clone's event.
		g := buildMP(t)
		c1, c2 := g.Clone(), g.Clone()
		c1.Add(Event{ID: EvID{T: 0, I: 2}, Kind: KWrite, Loc: x, Val: 11})
		c1.CoInsert(x, 1, EvID{T: 0, I: 2})
		c2.Add(Event{ID: EvID{T: 0, I: 2}, Kind: KWrite, Loc: y, Val: 22})
		c2.CoInsert(y, 1, EvID{T: 0, I: 2})
		e1 := c1.Event(EvID{T: 0, I: 2})
		e2 := c2.Event(EvID{T: 0, I: 2})
		if e1.Loc != x || e1.Val != 11 {
			t.Fatalf("clone 1's event stomped: %v", e1)
		}
		if e2.Loc != y || e2.Val != 22 {
			t.Fatalf("clone 2's event stomped: %v", e2)
		}
		if err := c1.CheckWellFormed(); err != nil {
			t.Fatalf("clone 1: %v", err)
		}
		if err := c2.CheckWellFormed(); err != nil {
			t.Fatalf("clone 2: %v", err)
		}
	})

	t.Run("SetRFDoesNotLeak", func(t *testing.T) {
		g := buildMP(t)
		key := snapshotKeyAndWF(t, g)
		c := g.Clone()
		c.SetRF(EvID{T: 1, I: 1}, EvID{T: 0, I: 0}) // rebind rx from init to wx
		if got := snapshotKeyAndWF(t, g); got != key {
			t.Fatalf("parent rf changed by clone's SetRF")
		}
		if w, _ := c.RF(EvID{T: 1, I: 1}); w != (EvID{T: 0, I: 0}) {
			t.Fatalf("clone rf not updated: %v", w)
		}
		if w, _ := g.RF(EvID{T: 1, I: 1}); w != InitID(x) {
			t.Fatalf("parent rf changed: %v", w)
		}
	})

	t.Run("SetEventValDoesNotLeak", func(t *testing.T) {
		// In-place element patch: the sharpest COW hazard, since it does
		// not change slice length.
		g := buildMP(t)
		c := g.Clone()
		c.SetEventVal(EvID{T: 0, I: 0}, 99)
		if got := g.Event(EvID{T: 0, I: 0}).Val; got != 1 {
			t.Fatalf("parent value patched through shared array: %d", got)
		}
		if got := c.Event(EvID{T: 0, I: 0}).Val; got != 99 {
			t.Fatalf("clone value not patched: %d", got)
		}
	})

	t.Run("SetEventKindDoesNotLeak", func(t *testing.T) {
		g := NewGraph(1, 1)
		u := Event{ID: EvID{T: 0, I: 0}, Kind: KUpdate, Loc: 0, Val: 1}
		g.Add(u)
		g.CoInsert(0, 0, u.ID)
		g.SetRF(u.ID, InitID(0))
		c := g.Clone()
		c.SetEventKind(u.ID, KRead)
		c.CoRemove(0, u.ID)
		if g.Event(u.ID).Kind != KUpdate {
			t.Fatalf("parent kind rewritten through shared array")
		}
		if c.Event(u.ID).Kind != KRead {
			t.Fatalf("clone kind not rewritten")
		}
		if g.CoIndex(0, u.ID) != 0 {
			t.Fatalf("parent co changed by clone's CoRemove")
		}
	})

	t.Run("CoInsertAndRemoveDoNotLeak", func(t *testing.T) {
		g := buildMP(t)
		key := snapshotKeyAndWF(t, g)
		c := g.Clone()
		c.CoRemove(y, EvID{T: 0, I: 1})
		c.SetEventKind(EvID{T: 1, I: 0}, KRead) // keep c ill-formed-free irrelevant; just parent check
		if got := snapshotKeyAndWF(t, g); got != key {
			t.Fatalf("parent co changed by clone's CoRemove")
		}
	})

	t.Run("ParentMutationDoesNotLeakToClone", func(t *testing.T) {
		// Ownership is symmetric: the parent also loses it at Clone time.
		g := buildMP(t)
		c := g.Clone()
		key := snapshotKeyAndWF(t, c)
		g.SetEventVal(EvID{T: 0, I: 1}, 77)
		g.Add(Event{ID: EvID{T: 1, I: 2}, Kind: KRead, Loc: x})
		g.SetRF(EvID{T: 1, I: 2}, InitID(x))
		if got := snapshotKeyAndWF(t, c); got != key {
			t.Fatalf("clone changed by parent mutation")
		}
	})

	t.Run("ChainedClones", func(t *testing.T) {
		// Clone of a clone that never mutated: all three share structure;
		// mutating the grandchild must leave both ancestors intact.
		g := buildMP(t)
		keyG := snapshotKeyAndWF(t, g)
		c := g.Clone()
		gc := c.Clone()
		gc.SetEventVal(EvID{T: 0, I: 0}, 42)
		if snapshotKeyAndWF(t, g) != keyG || snapshotKeyAndWF(t, c) != keyG {
			t.Fatalf("ancestor changed by grandchild mutation")
		}
		if gc.Event(EvID{T: 0, I: 0}).Val != 42 {
			t.Fatalf("grandchild mutation lost")
		}
	})

	t.Run("RestrictOfSharedGraph", func(t *testing.T) {
		// Restrict deep-copies and must not disturb a graph whose pieces
		// are shared with clones (the revisit path does exactly this).
		g := buildMP(t)
		c := g.Clone()
		key := snapshotKeyAndWF(t, g)
		sub := g.Restrict([]int{2, 0}) // drop thread 1
		sub.Add(Event{ID: EvID{T: 1, I: 0}, Kind: KRead, Loc: x})
		sub.SetRF(EvID{T: 1, I: 0}, EvID{T: 0, I: 0})
		if snapshotKeyAndWF(t, g) != key || snapshotKeyAndWF(t, c) != key {
			t.Fatalf("Restrict or mutation of restriction disturbed the shared graph")
		}
	})
}

// TestCloneEquivalentToDeepCopy drives identical mutation sequences through
// a COW clone and a manually deep-copied graph and checks the keys agree.
func TestCloneEquivalentToDeepCopy(t *testing.T) {
	const x = Loc(0)
	g := buildMP(t)

	deep := g.Restrict([]int{2, 2}) // Restrict is a deep copy
	cow := g.Clone()

	mutate := func(m *Graph) {
		m.SetEventVal(EvID{T: 0, I: 0}, 5)
		m.Add(Event{ID: EvID{T: 0, I: 2}, Kind: KWrite, Loc: x, Val: 6})
		m.CoInsert(x, 0, EvID{T: 0, I: 2})
		m.SetRF(EvID{T: 1, I: 1}, EvID{T: 0, I: 2})
	}
	mutate(deep)
	mutate(cow)
	if deep.Key() != cow.Key() {
		t.Fatalf("COW clone diverged from deep copy:\n%s\nvs\n%s", cow.Key(), deep.Key())
	}
	if err := cow.CheckWellFormed(); err != nil {
		t.Fatalf("COW clone ill-formed: %v", err)
	}
}

// TestCloneRFSlotOwnership covers the per-thread rf slots: a clone owns
// none of them, and SetRF or Add on one thread copies that thread's
// slots only, so neither the parent nor a sibling clone sees the edge.
func TestCloneRFSlotOwnership(t *testing.T) {
	const x = Loc(0)
	wx, rx := EvID{T: 0, I: 0}, EvID{T: 1, I: 1}

	t.Run("SiblingSetRFsDoNotCollide", func(t *testing.T) {
		g := buildMP(t)
		key := snapshotKeyAndWF(t, g)
		c1, c2 := g.Clone(), g.Clone()
		c1.SetRF(rx, wx)
		if w, _ := c2.RF(rx); w != InitID(x) {
			t.Fatalf("sibling sees the other clone's rf edge: %v", w)
		}
		c2.Add(Event{ID: EvID{T: 1, I: 2}, Kind: KRead, Loc: x})
		c2.SetRF(EvID{T: 1, I: 2}, wx)
		if w, _ := c1.RF(rx); w != wx {
			t.Fatalf("clone 1 lost its rf edge: %v", w)
		}
		if c1.ThreadLen(1) != 2 {
			t.Fatalf("clone 1 gained the sibling's event")
		}
		if _, ok := c1.RF(EvID{T: 1, I: 2}); ok {
			t.Fatalf("clone 1 sees the sibling's new rf slot")
		}
		if snapshotKeyAndWF(t, g) != key {
			t.Fatalf("parent changed by its clones' SetRF")
		}
		snapshotKeyAndWF(t, c1)
		snapshotKeyAndWF(t, c2)
	})

	t.Run("SetRFCopiesOnlyItsThread", func(t *testing.T) {
		g := buildMP(t)
		c := g.Clone()
		c.SetRF(rx, wx)
		if &c.rf[1][0] == &g.rf[1][0] {
			t.Fatalf("SetRF on thread 1 did not copy thread 1's slots")
		}
		if len(g.rf[0]) > 0 && &c.rf[0][0] != &g.rf[0][0] {
			t.Fatalf("SetRF on thread 1 copied thread 0's slots")
		}
		if &c.threads[1][0] != &g.threads[1][0] {
			t.Fatalf("SetRF copied thread 1's events")
		}
	})

	t.Run("ReadersOfOrderUnchanged", func(t *testing.T) {
		// Readers of wx in three threads, added out of (thread, index)
		// order: ReadersOf lists them by (thread, index) in the graph, a
		// clone and a clone with a rebound reader.
		g := NewGraph(3, 1)
		g.Add(Event{ID: wx, Kind: KWrite, Loc: x, Val: 1})
		g.CoInsert(x, 0, wx)
		for _, id := range []EvID{{T: 2, I: 0}, {T: 0, I: 1}, {T: 1, I: 0}, {T: 2, I: 1}} {
			g.Add(Event{ID: id, Kind: KRead, Loc: x})
			g.SetRF(id, wx)
		}
		want := []EvID{{T: 0, I: 1}, {T: 1, I: 0}, {T: 2, I: 0}, {T: 2, I: 1}}
		c := g.Clone()
		c.SetRF(EvID{T: 1, I: 0}, InitID(x))
		for _, tc := range []struct {
			name string
			got  []EvID
			want []EvID
		}{
			{"graph", g.ReadersOf(wx), want},
			{"clone", g.Clone().ReadersOf(wx), want},
			{"rebound clone", c.ReadersOf(wx), []EvID{{T: 0, I: 1}, {T: 2, I: 0}, {T: 2, I: 1}}},
			{"rebound clone, init", c.ReadersOf(InitID(x)), []EvID{{T: 1, I: 0}}},
		} {
			if len(tc.got) != len(tc.want) {
				t.Fatalf("%s: ReadersOf = %v, want %v", tc.name, tc.got, tc.want)
			}
			for i := range tc.want {
				if tc.got[i] != tc.want[i] {
					t.Fatalf("%s: ReadersOf = %v, want %v", tc.name, tc.got, tc.want)
				}
			}
		}
		if !c.HasReaders(InitID(x)) || g.HasReaders(InitID(x)) {
			t.Fatalf("HasReaders(init) wrong after rebinding a clone")
		}
	})
}
