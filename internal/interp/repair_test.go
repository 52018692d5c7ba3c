package interp

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/prog"
)

// buildChain constructs a graph for: T0: r = load x; store y = r+1,
// with r bound to `from`, and returns it with the store's stale value.
func buildChain(t *testing.T, from eg.EvID, staleVal int64) (*prog.Program, *eg.Graph) {
	t.Helper()
	b := prog.NewBuilder("chain")
	x, y := b.Loc("x"), b.Loc("y")
	_ = x
	t0 := b.Thread()
	r := t0.Load(x)
	t0.Store(y, prog.Add(prog.R(r), prog.Const(1)))
	t1 := b.Thread()
	t1.Store(x, prog.Const(5))
	p := b.MustBuild()

	g := eg.NewGraph(2, 2)
	g.Add(eg.Event{ID: eg.EvID{T: 0, I: 0}, Kind: eg.KRead, Loc: 0})
	g.Add(eg.Event{ID: eg.EvID{T: 0, I: 1}, Kind: eg.KWrite, Loc: 1, Val: staleVal,
		Data: []eg.EvID{{T: 0, I: 0}}})
	g.CoInsert(1, 0, eg.EvID{T: 0, I: 1})
	g.Add(eg.Event{ID: eg.EvID{T: 1, I: 0}, Kind: eg.KWrite, Loc: 0, Val: 5})
	g.CoInsert(0, 0, eg.EvID{T: 1, I: 0})
	g.SetRF(eg.EvID{T: 0, I: 0}, from)
	return p, g
}

func TestRepairPatchesStaleValue(t *testing.T) {
	// The read was rebound to T1's write (value 5) but the dependent store
	// still carries the value computed from init (0+1): repair fixes it.
	p, g := buildChain(t, eg.EvID{T: 1, I: 0}, 1)
	changed, ok := Repair(p, g, 0, 0)
	if !ok {
		t.Fatal("repair diverged on a pure value change")
	}
	if !changed {
		t.Fatal("repair must report the patch")
	}
	if got := g.Event(eg.EvID{T: 0, I: 1}).Val; got != 6 {
		t.Fatalf("patched value = %d, want 6", got)
	}
	// Second pass: fixpoint.
	changed, ok = Repair(p, g, 0, 0)
	if !ok || changed {
		t.Fatalf("second pass: changed=%v ok=%v, want false,true", changed, ok)
	}
}

func TestRepairAllConverges(t *testing.T) {
	p, g := buildChain(t, eg.EvID{T: 1, I: 0}, 1)
	if !RepairAll(p, g, eg.EvID{T: 0, I: 0}, 0) {
		t.Fatal("RepairAll failed on a convergent graph")
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairFlipsCASToRead(t *testing.T) {
	// T0: CAS(x, 0 -> 9). The graph has it as a *successful* update
	// reading init; rebinding it to a write of 5 must demote it to a
	// plain read and pull it out of coherence.
	b := prog.NewBuilder("casflip")
	x := b.Loc("x")
	t0 := b.Thread()
	t0.CAS(x, prog.Const(0), prog.Const(9))
	t1 := b.Thread()
	t1.Store(x, prog.Const(5))
	p := b.MustBuild()

	g := eg.NewGraph(2, 1)
	cas := eg.EvID{T: 0, I: 0}
	g.Add(eg.Event{ID: cas, Kind: eg.KUpdate, Loc: 0, Val: 9, Excl: true})
	g.CoInsert(0, 0, cas)
	g.SetRF(cas, eg.InitID(0))
	w := eg.EvID{T: 1, I: 0}
	g.Add(eg.Event{ID: w, Kind: eg.KWrite, Loc: 0, Val: 5})
	g.CoInsert(0, 1, w)
	// Rebind: the CAS now reads 5 ≠ 0 → must fail.
	g.SetRF(cas, w)

	changed, ok := Repair(p, g, 0, 0)
	if !ok || !changed {
		t.Fatalf("repair: changed=%v ok=%v", changed, ok)
	}
	if got := g.Event(cas).Kind; got != eg.KRead {
		t.Fatalf("CAS kind = %v, want KRead", got)
	}
	if g.CoIndex(0, cas) != -1 {
		t.Fatal("demoted CAS still in coherence order")
	}
}

func TestRepairPromotesCASToUpdate(t *testing.T) {
	// The mirror image: a failed CAS whose rebound source now matches the
	// expected value becomes a successful update, co-adjacent to it.
	b := prog.NewBuilder("caspromote")
	x := b.Loc("x")
	t0 := b.Thread()
	t0.CAS(x, prog.Const(5), prog.Const(9))
	t1 := b.Thread()
	t1.Store(x, prog.Const(5))
	p := b.MustBuild()

	g := eg.NewGraph(2, 1)
	cas := eg.EvID{T: 0, I: 0}
	w := eg.EvID{T: 1, I: 0}
	g.Add(eg.Event{ID: cas, Kind: eg.KRead, Loc: 0, Excl: true}) // failed: read init (0 ≠ 5)
	g.SetRF(cas, eg.InitID(0))
	g.Add(eg.Event{ID: w, Kind: eg.KWrite, Loc: 0, Val: 5})
	g.CoInsert(0, 0, w)
	g.SetRF(cas, w) // rebind: now reads 5 → succeeds

	changed, ok := Repair(p, g, 0, 0)
	if !ok || !changed {
		t.Fatalf("repair: changed=%v ok=%v", changed, ok)
	}
	ev := g.Event(cas)
	if ev.Kind != eg.KUpdate || ev.Val != 9 {
		t.Fatalf("promoted CAS = %v, want U x=9", ev)
	}
	if g.CoIndex(0, cas) != g.CoIndex(0, w)+1 {
		t.Fatal("promoted CAS not coherence-adjacent to its source")
	}
}

func TestRepairCascadesToReaders(t *testing.T) {
	// A demoted CAS's reader inherits its rf source.
	b := prog.NewBuilder("cascade")
	x := b.Loc("x")
	t0 := b.Thread()
	t0.CAS(x, prog.Const(0), prog.Const(9))
	t1 := b.Thread()
	t1.Load(x)
	t2 := b.Thread()
	t2.Store(x, prog.Const(5))
	p := b.MustBuild()

	g := eg.NewGraph(3, 1)
	cas := eg.EvID{T: 0, I: 0}
	rd := eg.EvID{T: 1, I: 0}
	w := eg.EvID{T: 2, I: 0}
	g.Add(eg.Event{ID: cas, Kind: eg.KUpdate, Loc: 0, Val: 9, Excl: true})
	g.CoInsert(0, 0, cas)
	g.SetRF(cas, eg.InitID(0))
	g.Add(eg.Event{ID: rd, Kind: eg.KRead, Loc: 0})
	g.SetRF(rd, cas)
	g.Add(eg.Event{ID: w, Kind: eg.KWrite, Loc: 0, Val: 5})
	g.CoInsert(0, 1, w)
	g.SetRF(cas, w) // rebind: CAS fails, its write part vanishes

	if !RepairAll(p, g, cas, 0) {
		t.Fatal("cascading repair failed")
	}
	if src, _ := g.RF(rd); src != w {
		t.Fatalf("reader rebound to %v, want %v (the demoted CAS's source)", src, w)
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairAllPropagatesAcrossThreads(t *testing.T) {
	// T0: r = load x; store y = r+1. T1: s = load y; store z = s+1.
	// T2: store x = 5. T0's load is rebound from init to T2's write: the
	// patched y makes T1, a thread the seed does not touch, dirty too.
	b := prog.NewBuilder("propagate")
	x, y, z := b.Loc("x"), b.Loc("y"), b.Loc("z")
	t0 := b.Thread()
	r := t0.Load(x)
	t0.Store(y, prog.Add(prog.R(r), prog.Const(1)))
	t1 := b.Thread()
	s := t1.Load(y)
	t1.Store(z, prog.Add(prog.R(s), prog.Const(1)))
	t2 := b.Thread()
	t2.Store(x, prog.Const(5))
	p := b.MustBuild()

	g := eg.NewGraph(3, 3)
	rx := addAction(g, 0, Next(p, g, 0, 0), eg.InitID(x))
	wy := addAction(g, 0, Next(p, g, 0, 0), eg.EvID{})
	addAction(g, 1, Next(p, g, 1, 0), wy)
	wz := addAction(g, 1, Next(p, g, 1, 0), eg.EvID{})
	wx := addAction(g, 2, Next(p, g, 2, 0), eg.EvID{})
	if g.Event(wz).Val != 2 {
		t.Fatalf("before the rebind z = %d, want 2", g.Event(wz).Val)
	}
	g.SetRF(rx, wx)

	got, ok := repairBothWays(t, p, g, rx)
	if !ok {
		t.Fatal("repair rejected a pure value change")
	}
	if vy, vz := got.Event(wy).Val, got.Event(wz).Val; vy != 6 || vz != 7 {
		t.Fatalf("repaired y, z = %d, %d, want 6, 7", vy, vz)
	}
}

func TestRepairAllDemotionResourcesThirdThread(t *testing.T) {
	// T0: r = load x; store y = r+1. T1: store x = 5. T2: CAS(x, 0 -> 9).
	// T0 reads the CAS's write (9). Rebinding the CAS to T1's write makes
	// it fail: its write vanishes and T0's load, in a thread neither the
	// seed nor the rebinding write belongs to, is re-sourced to T1's write.
	// T0 precedes the seed's thread, so it is repaired in the next pass.
	b := prog.NewBuilder("demote")
	x, y := b.Loc("x"), b.Loc("y")
	t0 := b.Thread()
	r := t0.Load(x)
	t0.Store(y, prog.Add(prog.R(r), prog.Const(1)))
	t1 := b.Thread()
	t1.Store(x, prog.Const(5))
	t2 := b.Thread()
	t2.CAS(x, prog.Const(0), prog.Const(9))
	p := b.MustBuild()

	g := eg.NewGraph(3, 2)
	cas := addAction(g, 2, Next(p, g, 2, 0), eg.InitID(x)) // succeeds: co x = [cas]
	rd := addAction(g, 0, Next(p, g, 0, 0), cas)
	wy := addAction(g, 0, Next(p, g, 0, 0), eg.EvID{})
	w := addAction(g, 1, Next(p, g, 1, 0), eg.EvID{}) // co x = [cas, w]
	if g.Event(cas).Kind != eg.KUpdate || g.Event(wy).Val != 10 {
		t.Fatalf("before the rebind: CAS %v, y = %d", g.Event(cas), g.Event(wy).Val)
	}
	g.SetRF(cas, w)

	got, ok := repairBothWays(t, p, g, cas)
	if !ok {
		t.Fatal("repair rejected the CAS demotion")
	}
	if got.Event(cas).Kind != eg.KRead || got.CoIndex(x, cas) != -1 {
		t.Fatalf("CAS not demoted: %v", got.Event(cas))
	}
	if src, _ := got.RF(rd); src != w {
		t.Fatalf("T0's load reads %v, want %v (the demoted CAS's source)", src, w)
	}
	if v := got.Event(wy).Val; v != 6 {
		t.Fatalf("repaired y = %d, want 6", v)
	}
	if err := got.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairDivergesOnBranchFlip(t *testing.T) {
	// T0: r = load x; if r == 0 { store y 1 }. The graph was built with
	// r=0 (store present); rebinding r to a nonzero write flips the
	// branch, so the store event can no longer be derived: structural
	// divergence.
	b := prog.NewBuilder("flip")
	x, y := b.Loc("x"), b.Loc("y")
	t0 := b.Thread()
	r := t0.Load(x)
	j := t0.BranchFwd(prog.Ne(prog.R(r), prog.Const(0)))
	t0.Store(y, prog.Const(1))
	t0.Patch(j)
	t1 := b.Thread()
	t1.Store(x, prog.Const(5))
	p := b.MustBuild()

	g := eg.NewGraph(2, 2)
	rid := eg.EvID{T: 0, I: 0}
	g.Add(eg.Event{ID: rid, Kind: eg.KRead, Loc: 0})
	g.SetRF(rid, eg.InitID(0))
	g.Add(eg.Event{ID: eg.EvID{T: 0, I: 1}, Kind: eg.KWrite, Loc: 1, Val: 1,
		Ctrl: []eg.EvID{rid}})
	g.CoInsert(1, 0, eg.EvID{T: 0, I: 1})
	w := eg.EvID{T: 1, I: 0}
	g.Add(eg.Event{ID: w, Kind: eg.KWrite, Loc: 0, Val: 5})
	g.CoInsert(0, 0, w)
	g.SetRF(rid, w) // branch now taken: the store is skipped

	if _, ok := Repair(p, g, 0, 0); ok {
		t.Fatal("repair must report structural divergence on a branch flip")
	}
}

func TestRepairAllRejectsValueCycle(t *testing.T) {
	// Mutual increment through rf: x' = r+1 with r reading x' — the
	// values never converge (out of thin air); RepairAll must give up.
	b := prog.NewBuilder("cycle")
	x, y := b.Loc("x"), b.Loc("y")
	t0 := b.Thread()
	r0 := t0.Load(x)
	t0.Store(y, prog.Add(prog.R(r0), prog.Const(1)))
	t1 := b.Thread()
	r1 := t1.Load(y)
	t1.Store(x, prog.Add(prog.R(r1), prog.Const(1)))
	p := b.MustBuild()

	g := eg.NewGraph(2, 2)
	g.Add(eg.Event{ID: eg.EvID{T: 0, I: 0}, Kind: eg.KRead, Loc: 0})
	g.Add(eg.Event{ID: eg.EvID{T: 0, I: 1}, Kind: eg.KWrite, Loc: 1, Val: 1, Data: []eg.EvID{{T: 0, I: 0}}})
	g.CoInsert(1, 0, eg.EvID{T: 0, I: 1})
	g.Add(eg.Event{ID: eg.EvID{T: 1, I: 0}, Kind: eg.KRead, Loc: 1})
	g.Add(eg.Event{ID: eg.EvID{T: 1, I: 1}, Kind: eg.KWrite, Loc: 0, Val: 1, Data: []eg.EvID{{T: 1, I: 0}}})
	g.CoInsert(0, 0, eg.EvID{T: 1, I: 1})
	// The rf cycle: r0 reads T1's write, r1 reads T0's write.
	g.SetRF(eg.EvID{T: 0, I: 0}, eg.EvID{T: 1, I: 1})
	g.SetRF(eg.EvID{T: 1, I: 0}, eg.EvID{T: 0, I: 1})

	if RepairAll(p, g, eg.EvID{T: 0, I: 0}, 0) {
		t.Fatal("RepairAll must reject a diverging value cycle")
	}
}

// TestActionKindStrings pins the human-readable action names used in
// panics and the explorer's unhandled-action message.
func TestActionKindStrings(t *testing.T) {
	want := map[ActionKind]string{
		ActLoad: "load", ActStore: "store", ActCAS: "cas", ActFAdd: "fadd",
		ActXchg: "xchg", ActFence: "fence", ActDone: "done",
		ActBlocked: "blocked", ActError: "error",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if ActionKind(99).String() != "ActionKind(99)" {
		t.Errorf("unknown kind = %q", ActionKind(99).String())
	}
}

// TestRMWOutcome covers the three RMW flavours and the non-RMW panic.
func TestRMWOutcome(t *testing.T) {
	if k, v := rmwOutcome(Action{Kind: ActCAS, Old: 1, New: 5}, 1); k != eg.KUpdate || v != 5 {
		t.Errorf("successful CAS: %v %d", k, v)
	}
	if k, _ := rmwOutcome(Action{Kind: ActCAS, Old: 1, New: 5}, 2); k != eg.KRead {
		t.Errorf("failed CAS must demote to a read: %v", k)
	}
	if k, v := rmwOutcome(Action{Kind: ActFAdd, Val: 3}, 4); k != eg.KUpdate || v != 7 {
		t.Errorf("fadd: %v %d", k, v)
	}
	if k, v := rmwOutcome(Action{Kind: ActXchg, Val: 9}, 4); k != eg.KUpdate || v != 9 {
		t.Errorf("xchg: %v %d", k, v)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-RMW action must panic")
			}
		}()
		rmwOutcome(Action{Kind: ActLoad}, 0)
	}()
}

// repairSweep is the reference for RepairAll: it re-replays every thread
// in every pass until a pass changes nothing, within the same pass limit.
// RepairAll's dirty-thread passes must patch, accept and reject exactly as
// it does.
func repairSweep(p *prog.Program, g *eg.Graph, maxSteps int) bool {
	limit := g.NumEvents() + 2
	for pass := 0; pass < limit; pass++ {
		anyChange := false
		for t := range p.Threads {
			changed, ok := Repair(p, g, t, maxSteps)
			if !ok {
				return false
			}
			anyChange = anyChange || changed
		}
		if !anyChange {
			return true
		}
	}
	return false
}

func wire(t *testing.T, g *eg.Graph) []byte {
	t.Helper()
	b, err := json.Marshal(eg.EncodeGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// repairBothWays repairs copies of g, in which seed was just rebound, with
// RepairAll and with repairSweep, fails the test unless the verdicts and
// the encoded graphs agree, and returns RepairAll's graph and verdict.
func repairBothWays(t *testing.T, p *prog.Program, g *eg.Graph, seed eg.EvID) (*eg.Graph, bool) {
	t.Helper()
	want := g.Clone()
	wantOK := repairSweep(p, want, 0)
	got := g.Clone()
	gotOK := RepairAll(p, got, seed, 0)
	if gotOK != wantOK || !bytes.Equal(wire(t, got), wire(t, want)) {
		t.Fatalf("%s: repair from %v: dirty passes %v, full sweep %v\nrebound:\n%s\ndirty passes:\n%s\nfull sweep:\n%s",
			p.Name, seed, gotOK, wantOK, g, got, want)
	}
	return got, gotOK
}

// revisitCut is the explorer's revisit keep set for rebinding r to w, as a
// cut vector: everything added before r, plus the closure of w and r
// under po-predecessors and rf sources, without r's own rf edge.
func revisitCut(g *eg.Graph, w, r eg.EvID) []int {
	keep := make([]int, g.NumThreads())
	var todo []eg.EvID
	need := func(id eg.EvID) {
		for ; !id.IsInit() && keep[id.T] <= id.I; keep[id.T]++ {
			todo = append(todo, eg.EvID{T: id.T, I: keep[id.T]})
		}
	}
	rStamp := g.At(r).Stamp
	g.ForEach(func(ev *eg.Event) {
		if ev.Stamp < rStamp {
			need(ev.ID)
		}
	})
	need(w)
	need(r)
	for len(todo) > 0 {
		id := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if id == r || !g.At(id).Kind.IsRead() {
			continue
		}
		if src, ok := g.RF(id); ok {
			need(src)
		}
	}
	return keep
}

// repairStats counts what forEachRebind's repairs did, so a property over
// them can tell that it was not vacuous.
type repairStats struct {
	rebinds, patched, rejected int
}

// checkRebinds enumerates the graphs replay reaches from p's empty graph,
// at most maxStates of them: each state adds the next event of the first
// thread that has one, under every rf source or coherence position, with
// no consistency check, and the graphs that the rebinds below repair
// into are states too. In every state it repairs, both ways
// (repairBothWays), every rebind the explorer repairs:
//   - a backward revisit: for each read r and same-location write w it
//     does not read, the state restricted to revisitCut, r rebound to w
//     and, if r is an update, moved coherence-after w;
//   - a forward chain steal: a new update reading the write w that an
//     existing update u reads, with u rebound to the new update.
func checkRebinds(t *testing.T, p *prog.Program, maxStates int, st *repairStats) {
	t.Helper()
	seen := map[string]bool{}
	stack := []*eg.Graph{eg.NewGraph(len(p.Threads), p.NumLocs)}
	rebind := func(g *eg.Graph, seed eg.EvID) {
		before := wire(t, g)
		got, ok := repairBothWays(t, p, g, seed)
		st.rebinds++
		if !ok {
			st.rejected++
			return
		}
		if !bytes.Equal(wire(t, got), before) {
			st.patched++
		}
		stack = append(stack, got)
	}
	for len(stack) > 0 && len(seen) < maxStates {
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
				loc := g.At(r).Loc
				if src, _ := g.RF(r); r == w || src == w || g.At(w).Loc != loc {
					continue
				}
				g2 := g.Restrict(revisitCut(g, w, r))
				g2.SetRF(r, w)
				if g2.At(r).Kind == eg.KUpdate {
					g2.CoRemove(loc, r)
					g2.CoInsert(loc, g2.CoIndex(loc, w)+1, r)
				}
				rebind(g2, r)
			}
		}

		for th := range p.Threads {
			a := Next(p, g, th, 0)
			if a.Kind == ActDone || a.Kind == ActBlocked || a.Kind == ActError {
				continue
			}
			id := eg.EvID{T: th, I: g.ThreadLen(th)}
			switch {
			case a.Reads():
				for _, w := range g.WritesTo(a.Loc) {
					ev := a.MakeEvent(id, g.ValueOf(w))
					g2 := g.Clone()
					g2.Add(ev)
					g2.SetRF(id, w)
					if ev.Kind != eg.KUpdate {
						stack = append(stack, g2)
						continue
					}
					g2.CoInsert(a.Loc, g2.CoIndex(a.Loc, w)+1, id)
					// Without a consistency check several updates may read
					// w; the steal takes one, as the explorer's does.
					readers := g.ReadersOf(w)
					i := slices.IndexFunc(readers, func(u eg.EvID) bool { return g.At(u).Kind == eg.KUpdate })
					if i < 0 {
						stack = append(stack, g2)
						continue
					}
					g2.SetRF(readers[i], id)
					rebind(g2, readers[i])
				}
			case a.Kind == ActStore:
				for pos := 0; pos <= len(g.CoLoc(a.Loc)); pos++ {
					g2 := g.Clone()
					g2.Add(a.MakeEvent(id, 0))
					g2.CoInsert(a.Loc, pos, id)
					stack = append(stack, g2)
				}
			default:
				g2 := g.Clone()
				g2.Add(a.MakeEvent(id, 0))
				stack = append(stack, g2)
			}
			break
		}
	}
}

// TestPropRepairMatchesSweep pins RepairAll's dirty-thread passes to the
// full sweep: over the litmus corpus, the RMW and dependency families and
// random programs, every revisit and chain-steal repair leaves the same
// verdict and byte-identical graph both ways.
func TestPropRepairMatchesSweep(t *testing.T) {
	var programs []*prog.Program
	for _, tc := range litmus.Corpus() {
		programs = append(programs, tc.P)
	}
	programs = append(programs,
		gen.IncN(2, 2),
		gen.CASContendN(3),
		gen.TreiberPushPop(eg.FenceNone),
		gen.SpinlockN(2, eg.FenceNone),
		gen.LBN(3),
	)
	for seed := int64(0); seed < 100; seed++ {
		programs = append(programs, gen.Random(seed))
	}
	var st repairStats
	for _, p := range programs {
		checkRebinds(t, p, 300, &st)
	}
	if st.patched == 0 || st.rejected == 0 {
		t.Fatalf("%d rebinds, %d patched, %d rejected: the property needs both patching and rejecting repairs",
			st.rebinds, st.patched, st.rejected)
	}
	t.Logf("%d rebinds: %d patched, %d rejected, all equal to the full sweep", st.rebinds, st.patched, st.rejected)
}

// FuzzRepairMatchesSweep runs the dirty-passes-versus-sweep property on
// random programs from fuzzed seeds.
func FuzzRepairMatchesSweep(f *testing.F) {
	for _, seed := range []int64{0, 7, 42, 1234} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		var st repairStats
		checkRebinds(t, gen.Random(seed), 300, &st)
	})
}
