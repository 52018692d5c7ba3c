package memmodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hmc/internal/eg"
	"hmc/internal/relation"
)

// randExecGraph builds a random well-formed execution graph: a few threads
// of writes, reads, updates and fences (full, lw and ld) over one or two
// locations, with random addr/data/ctrl dependencies on po-earlier reads
// of the same thread, random coherence placement, and rf sources drawn
// from every write to the location — any thread, po-later ones included —
// so rf can run both ways between threads, as in load buffering. Graphs
// need not be consistent under any model — the equivalence tests only
// compare verdicts.
func randExecGraph(rng *rand.Rand) *eg.Graph {
	threads := 1 + rng.Intn(4)
	locs := 1 + rng.Intn(3)
	g := eg.NewGraph(threads, locs)
	modes := []eg.Mode{eg.ModePlain, eg.ModeRlx, eg.ModeAcq, eg.ModeRel, eg.ModeAcqRel, eg.ModeSC}
	fences := []eg.FenceKind{eg.FenceFull, eg.FenceLW, eg.FenceLD}
	var reads, updates []eg.Event
	for t := 0; t < threads; t++ {
		n := 1 + rng.Intn(4)
		var srcs []eg.EvID // po-earlier reads and updates of this thread
		deps := func() []eg.EvID {
			var out []eg.EvID
			for _, r := range srcs {
				if rng.Intn(2) == 0 {
					out = append(out, r)
				}
			}
			return out
		}
		for i := 0; i < n; i++ {
			ev := eg.Event{ID: eg.EvID{T: t, I: i}, Loc: eg.Loc(rng.Intn(locs)), Mode: modes[rng.Intn(len(modes))]}
			switch rng.Intn(6) {
			case 0, 1:
				ev.Kind, ev.Val = eg.KWrite, int64(rng.Intn(3))
				ev.Addr, ev.Data, ev.Ctrl = deps(), deps(), deps()
				g.Add(ev)
				g.CoInsert(ev.Loc, rng.Intn(len(g.CoLoc(ev.Loc))+1), ev.ID)
			case 2, 3:
				ev.Kind, ev.Excl = eg.KRead, rng.Intn(8) == 0
				ev.Addr, ev.Ctrl = deps(), deps()
				g.Add(ev)
				reads = append(reads, ev)
				srcs = append(srcs, ev.ID)
			case 4:
				ev.Kind, ev.Val = eg.KUpdate, int64(rng.Intn(3))
				ev.Addr, ev.Data, ev.Ctrl = deps(), deps(), deps()
				g.Add(ev)
				updates = append(updates, ev)
				srcs = append(srcs, ev.ID)
			default:
				ev = eg.Event{ID: ev.ID, Kind: eg.KFence, Fence: fences[rng.Intn(len(fences))], Ctrl: deps()}
				g.Add(ev)
			}
		}
	}
	// Updates slot in coherence-immediately after their rf source, chosen
	// among the writes placed so far; plain reads then read any write.
	for _, u := range updates {
		ws := g.WritesTo(u.Loc)
		w := ws[rng.Intn(len(ws))]
		g.CoInsert(u.Loc, g.CoIndex(u.Loc, w)+1, u.ID)
		g.SetRF(u.ID, w)
	}
	for _, r := range reads {
		ws := g.WritesTo(r.Loc)
		g.SetRF(r.ID, ws[rng.Intn(len(ws))])
	}
	return g
}

// TestPropStreamingMatchesLegacy pins every model's streaming predicate
// against its materialized-union reference: same verdict on arbitrary
// well-formed graphs, for both heap-backed and pooled views.
func TestPropStreamingMatchesLegacy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randExecGraph(rng)
		if err := g.CheckWellFormed(); err != nil {
			t.Fatalf("generator produced ill-formed graph: %v", err)
		}
		v := eg.NewView(g)
		pv := eg.GetView(g)
		defer eg.PutView(pv)
		if Coherent(v) != LegacyCoherent(v) {
			return false
		}
		for _, m := range All() {
			want := Legacy(m).Consistent(v)
			if m.Consistent(v) != want {
				return false
			}
			if m.Consistent(pv) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestPropStoreBufferPPOMatchesLegacy pins the O(1) prefix-count separator
// test against the reference quadratic scan, pair for pair.
func TestPropStoreBufferPPOMatchesLegacy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randExecGraph(rng)
		v := eg.NewView(g)
		s := getScratch(v.N)
		defer putScratch(s)
		for _, relaxWW := range []bool{false, true} {
			if !storeBufferPPO(v, relaxWW, s).Equal(legacyStoreBufferPPO(v, relaxWW)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestLegacyNamesMatch checks Legacy preserves model identity: the wrapped
// model must report the same name, and unrewritten models pass through
// untouched, so the oracle pairing above covers exactly the five streaming
// models sc/tso/pso/imm/arm.
func TestLegacyNamesMatch(t *testing.T) {
	for _, m := range All() {
		lm := Legacy(m)
		if lm.Name() != m.Name() {
			t.Errorf("Legacy(%s).Name() = %s", m.Name(), lm.Name())
		}
	}
	for _, m := range []Model{SC{}, TSO{}, PSO{}, IMM{}, ARM{}} {
		if _, wrapped := Legacy(m).(legacyModel); !wrapped {
			t.Errorf("%s must map to its reference implementation", m.Name())
		}
	}
	for _, m := range []Model{RA{}, RC11{}, Relaxed{}} {
		if _, wrapped := Legacy(m).(legacyModel); wrapped {
			t.Errorf("%s has no dedicated legacy build and must pass through", m.Name())
		}
	}
}

// FuzzHardwareStreaming compares streaming imm/arm with their oracles on
// generated graphs, on both heap-backed and pooled views; the fuzzer
// explores the generator's seed space.
func FuzzHardwareStreaming(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		g := randExecGraph(rand.New(rand.NewSource(seed)))
		v := eg.NewView(g)
		pv := eg.GetView(g)
		defer eg.PutView(pv)
		for _, m := range []Model{IMM{}, ARM{}} {
			want := Legacy(m).Consistent(v)
			if m.Consistent(v) != want || m.Consistent(pv) != want {
				t.Fatalf("streaming %s = %v, oracle %v, on\n%v", m.Name(), !want, want, g)
			}
		}
	})
}

// coherentGraph draws random graphs until one satisfies atomicity and
// coherence: the precondition under which the hardware predicates build
// ppo, eco keys and hb.
func coherentGraph(rng *rand.Rand) *eg.View {
	for {
		v := eg.NewView(randExecGraph(rng))
		if Atomic(v) && LegacyCoherent(v) {
			return v
		}
	}
}

// sameOffInit reports whether got and want agree on every pair whose
// source is not an init event. The streaming order leaves init sources out
// of ppo ∪ bob (nothing precedes them, so their edges decide nothing),
// while the oracle's po-based fence relations keep them.
func sameOffInit(v *eg.View, got, want *relation.Rel) bool {
	for a := 0; a < v.N; a++ {
		if v.Events[a].ID.IsInit() {
			continue
		}
		for b := 0; b < v.N; b++ {
			if got.Has(a, b) != want.Has(a, b) {
				return false
			}
		}
	}
	return true
}

// TestPropPreservedOrderMatchesLegacy pins ppo ∪ bob, built by per-read
// reachability and per-fence row fills, against the oracle's closure and
// SeqFence/Restrict formulation, pair for pair.
func TestPropPreservedOrderMatchesLegacy(t *testing.T) {
	f := func(seed int64) bool {
		v := coherentGraph(rand.New(rand.NewSource(seed)))
		s := getScratch(v.N)
		defer putScratch(s)
		want := legacyImmPPO(v).UnionWith(legacyImmBob(v))
		return sameOffInit(v, preservedOrder(v, s.rfSources(v)), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestPropEcoKeysMatchEco checks the key encoding of eco: on atomic,
// coherent graphs, eco(b, a) holds exactly when b and a access the same
// location and key(b) < key(a).
func TestPropEcoKeysMatchEco(t *testing.T) {
	f := func(seed int64) bool {
		v := coherentGraph(rand.New(rand.NewSource(seed)))
		s := getScratch(v.N)
		defer putScratch(s)
		key := s.ecoKeys(v, s.rfSources(v))
		eco := v.Eco()
		for a := 0; a < v.N; a++ {
			for b := 0; b < v.N; b++ {
				byKey := key[a] >= 0 && key[b] >= 0 && key[b] < key[a] &&
					v.Events[a].Loc == v.Events[b].Loc
				if eco.Has(b, a) != byKey {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestPropObservesClosesHB checks the reachability walk behind obs: with
// no eco key to test against, immObserves must pass and leave ord closed
// into exactly the oracle's hb = (ppo ∪ bob ∪ rfe)⁺.
func TestPropObservesClosesHB(t *testing.T) {
	f := func(seed int64) bool {
		v := coherentGraph(rand.New(rand.NewSource(seed)))
		s := getScratch(v.N)
		defer putScratch(s)
		rfSrc := s.rfSources(v)
		ord := preservedOrder(v, rfSrc)
		addRfe(v, ord, rfSrc)
		if !s.d.AddRelAcyclic(v.Co()) || !s.d.AddRelAcyclic(ord) {
			return !v.Co().Union(legacyImmHB(v)).Acyclic() // prop fails on both sides
		}
		noKeys := fill(nil, v.N, -1)
		return immObserves(v, s, ord, noKeys) && sameOffInit(v, ord, legacyImmHB(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
