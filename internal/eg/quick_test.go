package eg

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// rndGraph wraps a randomly built, well-formed execution graph for
// testing/quick. The generator builds graphs the way exploration does:
// events appended per thread, reads bound to an existing (or init) write
// of their location, writes inserted at a random coherence position.
// Updates are excluded (their co-adjacency invariant would need the full
// explorer); writes, reads, and fences exercise every relation the
// property tests touch.
type rndGraph struct {
	G *Graph
}

// Generate implements quick.Generator.
func (rndGraph) Generate(r *rand.Rand, size int) reflect.Value {
	nT := 1 + r.Intn(3)
	nL := 1 + r.Intn(3)
	g := NewGraph(nT, nL)
	steps := r.Intn(10)
	for s := 0; s < steps; s++ {
		t := r.Intn(nT)
		id := EvID{T: t, I: g.ThreadLen(t)}
		loc := Loc(r.Intn(nL))
		switch r.Intn(4) {
		case 0: // fence
			g.Add(Event{ID: id, Kind: KFence, Fence: FenceFull})
		case 1, 2: // write at a random coherence position
			g.Add(Event{ID: id, Kind: KWrite, Loc: loc, Val: int64(r.Intn(5))})
			g.CoInsert(loc, r.Intn(len(g.CoLoc(loc))+1), id)
		default: // read from a random existing write (init included)
			ws := g.WritesTo(loc)
			w := ws[r.Intn(len(ws))]
			g.Add(Event{ID: id, Kind: KRead, Loc: loc, Val: g.ValueOf(w)})
			g.SetRF(id, w)
		}
	}
	if err := g.CheckWellFormed(); err != nil {
		panic("quick generator built an ill-formed graph: " + err.Error())
	}
	return reflect.ValueOf(rndGraph{G: g})
}

var quickCfg = &quick.Config{MaxCount: 300}

// TestQuickCloneIsDeepAndKeyDeterministic: a clone has the same key, and
// mutating the clone never leaks into the original.
func TestQuickCloneIsDeepAndKeyDeterministic(t *testing.T) {
	prop := func(rg rndGraph) bool {
		g := rg.G
		before := g.Key()
		c := g.Clone()
		if c.Key() != before {
			return false
		}
		// Mutate the clone: append a write to thread 0 at co position 0.
		id := EvID{T: 0, I: c.ThreadLen(0)}
		c.Add(Event{ID: id, Kind: KWrite, Loc: 0, Val: 99})
		c.CoInsert(0, 0, id)
		return g.Key() == before && c.Key() != before
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickRenameGroupAction: thread renaming is a group action on
// graphs — identity fixes the key, inverse undoes, composition composes —
// and every image is well-formed.
func TestQuickRenameGroupAction(t *testing.T) {
	prop := func(rg rndGraph, seed int64) bool {
		g := rg.G
		n := g.NumThreads()
		r := rand.New(rand.NewSource(seed))
		p1, p2 := r.Perm(n), r.Perm(n)
		idPerm := make([]int, n)
		inv := make([]int, n)
		comp := make([]int, n)
		for i := 0; i < n; i++ {
			idPerm[i] = i
			inv[p1[i]] = i
			comp[i] = p2[p1[i]]
		}
		if g.RenameThreads(idPerm).Key() != g.Key() {
			return false
		}
		h := g.RenameThreads(p1)
		if h.CheckWellFormed() != nil {
			return false
		}
		if h.RenameThreads(inv).Key() != g.Key() {
			return false
		}
		return h.RenameThreads(p2).Key() == g.RenameThreads(comp).Key()
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickRestrictIdentity: keeping everything is the identity, and the
// empty restriction is the empty graph.
func TestQuickRestrictIdentity(t *testing.T) {
	prop := func(rg rndGraph) bool {
		g := rg.G
		all := g.Restrict(threadLens(g))
		if all.Key() != g.Key() || all.CheckWellFormed() != nil {
			return false
		}
		none := g.Restrict(make([]int, g.NumThreads()))
		return none.NumEvents() == 0 && none.CheckWellFormed() == nil
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickViewRelationLaws checks the derived relations against their
// definitions on random graphs: fr = rf⁻¹;co minus identity, eco contains
// its generators and is transitive, po is a strict order, and rf sources
// are writes while rf targets are reads.
func TestQuickViewRelationLaws(t *testing.T) {
	prop := func(rg rndGraph) bool {
		v := NewView(rg.G)
		// fr definition.
		fr := v.Rf().Inverse().Compose(v.Co())
		for i := 0; i < v.N; i++ {
			fr.Remove(i, i)
		}
		for a := 0; a < v.N; a++ {
			for b := 0; b < v.N; b++ {
				if fr.Has(a, b) != v.Fr().Has(a, b) {
					return false
				}
			}
		}
		// eco ⊇ rf ∪ co ∪ fr and transitive.
		eco := v.Eco()
		gen := v.Rf().Union(v.Co()).UnionWith(v.Fr())
		for a := 0; a < v.N; a++ {
			for b := 0; b < v.N; b++ {
				if gen.Has(a, b) && !eco.Has(a, b) {
					return false
				}
				for c := 0; c < v.N; c++ {
					if eco.Has(a, b) && eco.Has(b, c) && !eco.Has(a, c) {
						return false
					}
				}
			}
		}
		// po is a strict partial order (irreflexive + transitive, and
		// total per thread).
		po := v.Po()
		if !po.Irreflexive() || !po.Acyclic() {
			return false
		}
		// rf endpoints have the right kinds.
		okRF := true
		v.Rf().Pairs(func(w, r int) {
			if !v.Events[w].Kind.IsWrite() || !v.Events[r].Kind.IsRead() {
				okRF = false
			}
		})
		return okRF
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickKeySeparatesRF: changing one read's rf source always changes
// the key (the memo must never conflate distinct bindings).
func TestQuickKeySeparatesRF(t *testing.T) {
	prop := func(rg rndGraph) bool {
		g := rg.G
		// Find a read with ≥2 candidate sources.
		var read EvID
		var alt EvID
		found := false
		g.ForEach(func(ev *Event) {
			if found || ev.Kind != KRead {
				return
			}
			cur, _ := g.RF(ev.ID)
			for _, w := range g.WritesTo(ev.Loc) {
				if w != cur {
					read, alt, found = ev.ID, w, true
					return
				}
			}
		})
		if !found {
			return true // vacuous for this graph
		}
		before := g.Key()
		c := g.Clone()
		c.SetRF(read, alt)
		c.SetEventKind(read, KRead) // no-op; keeps the event a read
		return c.Key() != before
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}
