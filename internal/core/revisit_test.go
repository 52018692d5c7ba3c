package core

import (
	"testing"

	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// cycleRejections enumerates the states exploration of p under m reaches
// (the same successors visit recurses into, memoized on their key, at
// most maxStates of them when positive) and, in every state, takes every
// same-location pair of a write w and a read r not already bound to it.
// Wherever closesCoherenceCycle fires on a revisit keep set — phase 1's,
// and phase 2's after taint pruning — the path it short-circuits must
// reject too: Restrict, rebind, RepairAll, then the model's consistency
// check. It returns how often the check fired.
func cycleRejections(t *testing.T, p *prog.Program, m memmodel.Model, maxStates int) int {
	t.Helper()
	e := &explorer{p: p, opts: Options{Model: m}, sh: &shared{res: &Result{}}}
	seen := map[string]bool{}
	stack := []*eg.Graph{eg.NewGraph(len(p.Threads), p.NumLocs)}
	fired := 0
	check := func(g *eg.Graph, keep map[eg.EvID]bool, w, r eg.EvID, phase int) {
		if !closesCoherenceCycle(p, g, keep, w, r) {
			return
		}
		fired++
		g2, repaired := rebindRepaired(p, g, keep, w, r, 0)
		if !repaired {
			return
		}
		v := eg.NewView(g2)
		if m.Consistent(v) {
			t.Errorf("%s under %s: coherence-cycle check rejected the phase-%d revisit (%v ← %v), "+
				"which repairs into a consistent graph\nstate:\n%s\nrepaired:\n%s",
				p.Name, m.Name(), phase, r, w, g, g2)
		}
	}
	for len(stack) > 0 && (maxStates <= 0 || len(seen) < maxStates) {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		k := g.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		var writes, reads []eg.EvID
		g.ForEach(func(ev eg.Event) {
			if ev.Kind.IsWrite() {
				writes = append(writes, ev.ID)
			}
			if ev.Kind.IsRead() {
				reads = append(reads, ev.ID)
			}
		})
		for _, w := range writes {
			for _, r := range reads {
				if r == w || g.Event(r).Loc != g.Event(w).Loc {
					continue
				}
				if src, ok := g.RF(r); ok && src == w {
					continue
				}
				keep := keepSet(g, w, r)
				check(g, keep, w, r, 1)
				if !existenceDeps(g, keep, r) {
					continue // no phase 2 (pruneTainted would delete nothing)
				}
				if n := len(keep); pruneTainted(g, keep, w, r) && len(keep) < n {
					check(g, keep, w, r, 2)
				}
			}
		}
		kids, _ := e.successors(g)
		stack = append(stack, kids...)
	}
	return fired
}

// TestPropCoherenceCycleOnlyRejectsDoomed pins the soundness of the
// revisit pre-check: it may only reject rebinds the full path would have
// rejected, so it removes work without changing what is explored. The
// inputs cover random programs under every model and the CAS-heavy
// families — a demoted CAS re-sources its readers, which is why the walk
// never crosses an rf edge out of a CAS (TreiberPushPop catches a walk
// that does).
func TestPropCoherenceCycleOnlyRejectsDoomed(t *testing.T) {
	programs := []*prog.Program{
		gen.TreiberPushPop(eg.FenceNone),
		gen.CASContendN(3),
		gen.SpinlockN(3, eg.FenceNone),
		gen.IncN(3, 2),
	}
	for seed := int64(0); seed < 300; seed++ {
		programs = append(programs, gen.Random(seed))
	}
	fired := 0
	for _, p := range programs {
		for _, m := range memmodel.All() {
			fired += cycleRejections(t, p, m, 0)
			if t.Failed() {
				t.FailNow()
			}
		}
	}
	if fired == 0 {
		t.Fatal("the coherence-cycle check never fired: the property is vacuous")
	}
	t.Logf("coherence-cycle check fired %d times, every one rejected by repair or consistency", fired)
}

// FuzzRevisitCycle runs the coherence-cycle soundness property on
// decoder-generated programs under every model.
func FuzzRevisitCycle(f *testing.F) {
	f.Add([]byte{2, 1, 2, 2, 8, 2, 8}, uint8(0))
	f.Add([]byte{2, 2, 2, 1, 3, 1, 17, 2, 0, 7, 1, 19}, uint8(3))
	f.Add([]byte{3, 1, 2, 3, 0, 2, 0, 2, 3, 0, 1, 0}, uint8(7))
	f.Add([]byte{1, 1, 4, 6, 1, 7, 2, 1, 3}, uint8(5))

	names := memmodel.Names()
	f.Fuzz(func(t *testing.T, data []byte, modelByte uint8) {
		p := decodeProgram(data)
		m, err := memmodel.ByName(names[int(modelByte)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		cycleRejections(t, p, m, 2000)
	})
}
