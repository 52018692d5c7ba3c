package memmodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hmc/internal/eg"
)

// randExecGraph builds a random well-formed execution graph: a few threads
// of writes, reads, updates and fences over one or two locations, with
// random rf sources and random coherence placement. Graphs need not be
// consistent under any model — the equivalence tests only compare verdicts.
func randExecGraph(rng *rand.Rand) *eg.Graph {
	threads := 1 + rng.Intn(3)
	locs := 1 + rng.Intn(2)
	g := eg.NewGraph(threads, locs)
	writers := make([][]eg.EvID, locs)
	for l := range writers {
		writers[l] = []eg.EvID{eg.InitID(eg.Loc(l))}
	}
	modes := []eg.Mode{eg.ModePlain, eg.ModeRlx, eg.ModeAcq, eg.ModeRel, eg.ModeAcqRel, eg.ModeSC}
	for t := 0; t < threads; t++ {
		n := rng.Intn(4)
		for i := 0; i < n; i++ {
			id := eg.EvID{T: t, I: i}
			l := eg.Loc(rng.Intn(locs))
			mode := modes[rng.Intn(len(modes))]
			switch rng.Intn(6) {
			case 0, 1:
				g.Add(eg.Event{ID: id, Kind: eg.KWrite, Loc: l, Val: int64(rng.Intn(3)), Mode: mode})
				g.CoInsert(l, rng.Intn(len(g.CoLoc(l))+1), id)
				writers[l] = append(writers[l], id)
			case 2, 3:
				g.Add(eg.Event{ID: id, Kind: eg.KRead, Loc: l, Mode: mode, Excl: rng.Intn(8) == 0})
				ws := writers[l]
				g.SetRF(id, ws[rng.Intn(len(ws))])
			case 4:
				w := writers[l][rng.Intn(len(writers[l]))]
				g.Add(eg.Event{ID: id, Kind: eg.KUpdate, Loc: l, Val: int64(rng.Intn(3)), Mode: mode})
				g.CoInsert(l, g.CoIndex(l, w)+1, id)
				g.SetRF(id, w)
				writers[l] = append(writers[l], id)
			default:
				kind := eg.FenceFull
				if rng.Intn(2) == 0 {
					kind = eg.FenceLW
				}
				g.Add(eg.Event{ID: id, Kind: eg.KFence, Fence: kind})
			}
		}
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
		for _, relaxWW := range []bool{false, true} {
			if !storeBufferPPO(v, relaxWW).Equal(legacyStoreBufferPPO(v, relaxWW)) {
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
// untouched, so the oracle pairing above covers exactly sc/tso/pso.
func TestLegacyNamesMatch(t *testing.T) {
	for _, m := range All() {
		lm := Legacy(m)
		if lm.Name() != m.Name() {
			t.Errorf("Legacy(%s).Name() = %s", m.Name(), lm.Name())
		}
	}
	if _, wrapped := Legacy(RC11{}).(legacyModel); wrapped {
		t.Error("rc11 has no dedicated legacy build and must pass through")
	}
	if _, wrapped := Legacy(SC{}).(legacyModel); !wrapped {
		t.Error("sc must map to its reference implementation")
	}
}
