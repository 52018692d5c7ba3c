package core

import (
	"fmt"
	"slices"
	"testing"

	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// forEachRevisitPair enumerates the states exploration of p under m
// reaches (the same successors visit recurses into, memoized on their
// key, at most maxStates of them when positive) and, in every state,
// calls fn on every same-location pair of a write w and a read r not
// already bound to it — every backward revisit the explorer could try.
func forEachRevisitPair(p *prog.Program, m memmodel.Model, maxStates int, fn func(g *eg.Graph, w, r eg.EvID)) {
	e := &explorer{p: p, opts: Options{Model: m}, sh: &shared{res: &Result{}}}
	seen := map[string]bool{}
	stack := []*eg.Graph{eg.NewGraph(len(p.Threads), p.NumLocs)}
	for len(stack) > 0 && (maxStates <= 0 || len(seen) < maxStates) {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		k := g.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		var writes, reads []eg.EvID
		g.ForEach(func(ev *eg.Event) {
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
				fn(g, w, r)
			}
		}
		kids, _ := e.successors(g)
		stack = append(stack, kids...)
	}
}

// cycleRejections runs forEachRevisitPair and, wherever
// closesCoherenceCycle fires on a revisit keep set — phase 1's, and phase
// 2's after taint pruning — checks that the path it short-circuits
// rejects too: Restrict, rebind, RepairAll, then the model's consistency
// check. It returns how often the check fired.
func cycleRejections(t *testing.T, p *prog.Program, m memmodel.Model, maxStates int) int {
	t.Helper()
	fired := 0
	check := func(g *eg.Graph, keep []int, w, r eg.EvID, phase int) {
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
	forEachRevisitPair(p, m, maxStates, func(g *eg.Graph, w, r eg.EvID) {
		keep := keepSet(g, w, r, new(cutScratch))
		check(g, keep, w, r, 1)
		if !existenceDeps(g, keep, r) {
			return // no phase 2 (pruneTainted would delete nothing)
		}
		if pruned, ok := pruneTainted(g, keep, w, r); ok && !slices.Equal(pruned, keep) {
			check(g, pruned, w, r, 2)
		}
	})
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

// keepSetOracle computes the revisit keep set as a map, straight from its
// definition: the reference TestPropKeepCutMatchesOracle holds keepSet's
// cut vector to.
func keepSetOracle(g *eg.Graph, w, r eg.EvID) map[eg.EvID]bool {
	keep := make(map[eg.EvID]bool)
	var stack []eg.EvID
	push := func(id eg.EvID) {
		if !id.IsInit() && !keep[id] {
			keep[id] = true
			stack = append(stack, id)
		}
	}
	rStamp := g.Event(r).Stamp
	g.ForEach(func(ev *eg.Event) {
		if ev.Stamp < rStamp {
			push(ev.ID)
		}
	})
	push(w)
	push(r)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := 0; i < id.I; i++ {
			push(eg.EvID{T: id.T, I: i})
		}
		if id != r && g.Event(id).Kind.IsRead() {
			if src, ok := g.RF(id); ok {
				push(src)
			}
		}
	}
	return keep
}

// pruneTaintedOracle is pruneTainted over a map keep set, deleting from
// keep in place: the reference TestPropKeepCutMatchesOracle holds
// pruneTainted's cut to.
func pruneTaintedOracle(g *eg.Graph, keep map[eg.EvID]bool, w, r eg.EvID) bool {
	// Value taint: reads whose observed value may change when r is
	// rebound, and writes whose stored value may change.
	taintedReads := map[eg.EvID]bool{r: true}
	taintedWrites := map[eg.EvID]bool{}
	for changed := true; changed; {
		changed = false
		g.ForEach(func(ev *eg.Event) {
			if !keep[ev.ID] {
				return
			}
			if ev.Kind.IsWrite() && !taintedWrites[ev.ID] {
				for _, d := range ev.Data {
					if taintedReads[d] {
						taintedWrites[ev.ID] = true
						changed = true
					}
				}
			}
			if ev.Kind.IsRead() && !taintedReads[ev.ID] {
				if src, ok := g.RF(ev.ID); ok && taintedWrites[src] {
					taintedReads[ev.ID] = true
					changed = true
				}
			}
		})
	}

	// Existence taint: ctrl/addr dependency on a tainted read, closed
	// under po-successors and readers-of-deleted-writes.
	doomed := map[eg.EvID]bool{}
	mark := func(id eg.EvID) bool {
		if !keep[id] || doomed[id] {
			return false
		}
		doomed[id] = true
		return true
	}
	g.ForEach(func(ev *eg.Event) {
		if !keep[ev.ID] || ev.ID == r {
			return
		}
		for _, set := range [][]eg.EvID{ev.Ctrl, ev.Addr} {
			for _, d := range set {
				if taintedReads[d] {
					mark(ev.ID)
				}
			}
		}
	})
	for changed := true; changed; {
		changed = false
		g.ForEach(func(ev *eg.Event) {
			if !keep[ev.ID] || doomed[ev.ID] {
				return
			}
			// po-successor of a doomed event
			for i := 0; i < ev.ID.I; i++ {
				if doomed[eg.EvID{T: ev.ID.T, I: i}] {
					if mark(ev.ID) {
						changed = true
					}
					return
				}
			}
			// reader of a doomed write
			if ev.Kind.IsRead() && ev.ID != r {
				if src, ok := g.RF(ev.ID); ok && doomed[src] {
					if mark(ev.ID) {
						changed = true
					}
				}
			}
		})
	}
	if doomed[w] || doomed[r] {
		return false
	}
	for id := range doomed { //hmc:nondet(set difference: deletions commute, order-invariant)
		delete(keep, id)
	}
	return true
}

// cutMatchesSet reports whether the cut vector keeps exactly the events
// of set, naming the first difference.
func cutMatchesSet(g *eg.Graph, cut []int, set map[eg.EvID]bool) (bool, string) {
	n := 0
	for t := range cut {
		for i := 0; i < g.ThreadLen(t); i++ {
			id := eg.EvID{T: t, I: i}
			if in := i < cut[t]; in != set[id] {
				return false, fmt.Sprintf("%v: cut keeps it %v, oracle %v", id, in, set[id])
			}
			if set[id] {
				n++
			}
		}
	}
	if n != len(set) {
		return false, fmt.Sprintf("oracle keeps %d events, %d of them in the graph", len(set), n)
	}
	return true, ""
}

// keepCutMismatches compares keepSet and pruneTainted against their map
// oracles on every revisit pair of the states exploration of p under m
// reaches (at most maxStates when positive), in both phases. It returns
// how many pairs reached phase 2 with something pruned.
func keepCutMismatches(t *testing.T, p *prog.Program, m memmodel.Model, maxStates int) int {
	t.Helper()
	pruned := 0
	forEachRevisitPair(p, m, maxStates, func(g *eg.Graph, w, r eg.EvID) {
		if t.Failed() {
			return
		}
		cut := keepSet(g, w, r, new(cutScratch))
		set := keepSetOracle(g, w, r)
		if ok, diff := cutMatchesSet(g, cut, set); !ok {
			t.Errorf("%s under %s: phase-1 keep set of (%v ← %v) differs from the oracle: %s\nstate:\n%s",
				p.Name, m.Name(), r, w, diff, g)
			return
		}
		if got, want := existenceDeps(g, cut, r), existenceDepsOracle(g, set, r); got != want {
			t.Errorf("%s under %s: existenceDeps of (%v ← %v) = %v, oracle %v", p.Name, m.Name(), r, w, got, want)
		}
		cut2, ok := pruneTainted(g, cut, w, r)
		n := len(set)
		okOracle := pruneTaintedOracle(g, set, w, r)
		if ok != okOracle {
			t.Errorf("%s under %s: pruneTainted of (%v ← %v) reports %v, oracle %v\nstate:\n%s",
				p.Name, m.Name(), r, w, ok, okOracle, g)
			return
		}
		if !ok {
			return
		}
		if match, diff := cutMatchesSet(g, cut2, set); !match {
			t.Errorf("%s under %s: phase-2 keep set of (%v ← %v) differs from the oracle: %s\nstate:\n%s",
				p.Name, m.Name(), r, w, diff, g)
		}
		if len(set) < n {
			pruned++
		}
	})
	return pruned
}

// existenceDepsOracle is existenceDeps over the map keep set.
func existenceDepsOracle(g *eg.Graph, keep map[eg.EvID]bool, r eg.EvID) bool {
	for id := range keep { //hmc:nondet(existential scan: any dependent event answers, order-invariant)
		if ev := g.Event(id); id != r && (len(ev.Ctrl) > 0 || len(ev.Addr) > 0) {
			return true
		}
	}
	return false
}

// TestPropKeepCutMatchesOracle pins the cut-vector keep set to the map
// oracles: over the litmus corpus, the dependency and CAS families and
// random programs, under every model, every revisit pair's phase-1 cut,
// existenceDeps answer and phase-2 cut (or its contradiction verdict)
// equal the oracle's.
func TestPropKeepCutMatchesOracle(t *testing.T) {
	var programs []*prog.Program
	for _, tc := range litmus.Corpus() {
		programs = append(programs, tc.P)
	}
	programs = append(programs,
		gen.TreiberPushPop(eg.FenceNone),
		gen.CASContendN(3),
		gen.SpinlockN(3, eg.FenceNone),
		gen.IncN(3, 2),
		gen.LBN(4),
	)
	for seed := int64(0); seed < 100; seed++ {
		programs = append(programs, gen.Random(seed))
	}
	pruned := 0
	for _, p := range programs {
		for _, m := range memmodel.All() {
			pruned += keepCutMismatches(t, p, m, 0)
			if t.Failed() {
				t.FailNow()
			}
		}
	}
	if pruned == 0 {
		t.Fatal("phase 2 never pruned anything: the phase-2 half of the property is vacuous")
	}
	t.Logf("phase 2 pruned on %d revisit pairs, every cut equal to the oracle's set", pruned)
}

// FuzzKeepCut runs the keep-cut-versus-oracle property on
// decoder-generated programs under every model.
func FuzzKeepCut(f *testing.F) {
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
		keepCutMismatches(t, p, m, 2000)
	})
}
