package interp

import (
	"reflect"
	"strings"
	"testing"

	"hmc/internal/eg"
	"hmc/internal/prog"
)

// addAction is a test helper that adds the event an action describes,
// reading from the given write (for reads) and placing writes co-last.
func addAction(g *eg.Graph, t int, a Action, rfFrom eg.EvID) eg.EvID {
	id := eg.EvID{T: t, I: g.ThreadLen(t)}
	var readVal int64
	if a.Reads() {
		readVal = g.ValueOf(rfFrom)
	}
	ev := a.MakeEvent(id, readVal)
	g.Add(ev)
	if ev.Kind.IsWrite() {
		g.CoInsert(ev.Loc, len(g.CoLoc(ev.Loc)), id)
	}
	if ev.Kind.IsRead() {
		g.SetRF(id, rfFrom)
	}
	return id
}

func mpProgram(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("MP")
	x, y := b.Loc("x"), b.Loc("y")
	t0 := b.Thread()
	t0.Store(x, prog.Const(1))
	t0.Store(y, prog.Const(1))
	t1 := b.Thread()
	ry := t1.Load(y)
	rx := t1.Load(x)
	b.Exists("ry=1 && rx=0", func(fs prog.FinalState) bool {
		return fs.Reg(1, ry) == 1 && fs.Reg(1, rx) == 0
	})
	return b.MustBuild()
}

func TestNextFirstActionIsStore(t *testing.T) {
	p := mpProgram(t)
	g := eg.NewGraph(2, 2)
	a := Next(p, g, 0, 0)
	if a.Kind != ActStore || a.Loc != 0 || a.Val != 1 {
		t.Fatalf("first action = %+v, want store x=1", a)
	}
	if len(a.Addr)+len(a.Data)+len(a.Ctrl) != 0 {
		t.Fatalf("constant store must have no deps: %+v", a)
	}
}

func TestNextConsumesAndAdvances(t *testing.T) {
	p := mpProgram(t)
	g := eg.NewGraph(2, 2)
	a := Next(p, g, 0, 0)
	addAction(g, 0, a, eg.EvID{})
	a = Next(p, g, 0, 0)
	if a.Kind != ActStore || a.Loc != 1 {
		t.Fatalf("second action = %+v, want store y", a)
	}
	addAction(g, 0, a, eg.EvID{})
	a = Next(p, g, 0, 0)
	if a.Kind != ActDone {
		t.Fatalf("third action = %+v, want done", a)
	}
}

func TestLoadObservesRfValue(t *testing.T) {
	p := mpProgram(t)
	g := eg.NewGraph(2, 2)
	addAction(g, 0, Next(p, g, 0, 0), eg.EvID{}) // W x=1
	wy := addAction(g, 0, Next(p, g, 0, 0), eg.EvID{})

	a := Next(p, g, 1, 0)
	if a.Kind != ActLoad || a.Loc != 1 {
		t.Fatalf("reader action = %+v, want load y", a)
	}
	addAction(g, 1, a, wy) // ry reads W y=1
	a = Next(p, g, 1, 0)
	if a.Kind != ActLoad || a.Loc != 0 {
		t.Fatalf("second reader action = %+v, want load x", a)
	}
	addAction(g, 1, a, eg.InitID(0)) // rx reads init
	a = Next(p, g, 1, 0)
	if a.Kind != ActDone {
		t.Fatalf("reader not done: %+v", a)
	}
	if regs := FinalState(p, g, 0).Regs[1]; regs[0] != 1 || regs[1] != 0 {
		t.Fatalf("final regs = %v, want [1 0]", regs)
	}
}

func TestDataDependencyTracked(t *testing.T) {
	// r = load x; store y = r+1  → store has data dep on the load.
	b := prog.NewBuilder("data")
	x, y := b.Loc("x"), b.Loc("y")
	t0 := b.Thread()
	r := t0.Load(x)
	t0.Store(y, prog.Add(prog.R(r), prog.Const(1)))
	p := b.MustBuild()

	g := eg.NewGraph(1, 2)
	load := addAction(g, 0, Next(p, g, 0, 0), eg.InitID(0))
	a := Next(p, g, 0, 0)
	if a.Kind != ActStore || a.Val != 1 {
		t.Fatalf("store action = %+v", a)
	}
	if len(a.Data) != 1 || a.Data[0] != load {
		t.Fatalf("data deps = %v, want [%v]", a.Data, load)
	}
	if len(a.Ctrl) != 0 || len(a.Addr) != 0 {
		t.Fatalf("unexpected extra deps: %+v", a)
	}
}

func TestAddrDependencyTracked(t *testing.T) {
	// r = load x; s = load *(r) → second load has addr dep on first.
	b := prog.NewBuilder("addr")
	_ = b.Loc("x")
	_ = b.Loc("y")
	t0 := b.Thread()
	r := t0.Load(0)
	t0.LoadAt(prog.R(r))
	p := b.MustBuild()

	g := eg.NewGraph(1, 2)
	load := addAction(g, 0, Next(p, g, 0, 0), eg.InitID(0))
	a := Next(p, g, 0, 0)
	if a.Kind != ActLoad || a.Loc != 0 { // r = 0 → address 0
		t.Fatalf("second load = %+v", a)
	}
	if len(a.Addr) != 1 || a.Addr[0] != load {
		t.Fatalf("addr deps = %v, want [%v]", a.Addr, load)
	}
}

func TestCtrlDependencyAccumulates(t *testing.T) {
	// r = load x; if r goto L; store y=1; L: store z=1
	// Both stores carry a ctrl dep on the load (accumulation at joins).
	b := prog.NewBuilder("ctrl")
	x, y, z := b.Loc("x"), b.Loc("y"), b.Loc("z")
	_ = x
	t0 := b.Thread()
	r := t0.Load(x)
	j := t0.BranchFwd(prog.R(r))
	t0.Store(y, prog.Const(1))
	t0.Patch(j)
	t0.Store(z, prog.Const(1))
	p := b.MustBuild()

	g := eg.NewGraph(1, 3)
	load := addAction(g, 0, Next(p, g, 0, 0), eg.InitID(0)) // reads 0: branch not taken
	a := Next(p, g, 0, 0)
	if a.Loc != y {
		t.Fatalf("expected store y next, got %+v", a)
	}
	if len(a.Ctrl) != 1 || a.Ctrl[0] != load {
		t.Fatalf("store y ctrl deps = %v", a.Ctrl)
	}
	addAction(g, 0, a, eg.EvID{})
	a = Next(p, g, 0, 0)
	if a.Loc != z {
		t.Fatalf("expected store z, got %+v", a)
	}
	if len(a.Ctrl) != 1 || a.Ctrl[0] != load {
		t.Fatalf("store z ctrl deps = %v (ctrl must persist past the join)", a.Ctrl)
	}
}

func TestBranchTakenSkips(t *testing.T) {
	b := prog.NewBuilder("taken")
	x, y := b.Loc("x"), b.Loc("y")
	t0 := b.Thread()
	r := t0.Load(x)
	j := t0.BranchFwd(prog.Eq(prog.R(r), prog.Const(0)))
	t0.Store(y, prog.Const(99))
	t0.Patch(j)
	p := b.MustBuild()

	g := eg.NewGraph(1, 2)
	addAction(g, 0, Next(p, g, 0, 0), eg.InitID(0)) // reads 0 → branch taken
	a := Next(p, g, 0, 0)
	if a.Kind != ActDone {
		t.Fatalf("branch taken must skip store, got %+v", a)
	}
}

func TestCASActionAndMakeEvent(t *testing.T) {
	b := prog.NewBuilder("cas")
	x := b.Loc("x")
	t0 := b.Thread()
	t0.CAS(x, prog.Const(0), prog.Const(5))
	p := b.MustBuild()

	g := eg.NewGraph(1, 1)
	a := Next(p, g, 0, 0)
	if a.Kind != ActCAS || a.Old != 0 || a.New != 5 {
		t.Fatalf("cas action = %+v", a)
	}
	id := eg.EvID{T: 0, I: 0}
	evOK := a.MakeEvent(id, 0)
	if evOK.Kind != eg.KUpdate || evOK.Val != 5 {
		t.Fatalf("successful CAS event = %v", evOK)
	}
	evFail := a.MakeEvent(id, 3)
	if evFail.Kind != eg.KRead {
		t.Fatalf("failed CAS event = %v", evFail)
	}
}

func TestCASSuccessFlagOnReplay(t *testing.T) {
	b := prog.NewBuilder("casflag")
	x, y := b.Loc("x"), b.Loc("y")
	t0 := b.Thread()
	v, succ := t0.CAS(x, prog.Const(0), prog.Const(5))
	_ = v
	t0.Store(y, prog.R(succ))
	p := b.MustBuild()

	g := eg.NewGraph(1, 2)
	a := Next(p, g, 0, 0)
	u := addAction(g, 0, a, eg.InitID(0)) // reads 0 → success
	a = Next(p, g, 0, 0)
	if a.Kind != ActStore || a.Val != 1 {
		t.Fatalf("store after cas = %+v, want value 1 (success)", a)
	}
	if len(a.Data) != 1 || a.Data[0] != u {
		t.Fatalf("success flag must carry the update's taint: %v", a.Data)
	}
}

func TestFAddAndXchgEvents(t *testing.T) {
	b := prog.NewBuilder("rmw")
	x := b.Loc("x")
	t0 := b.Thread()
	t0.FAdd(x, prog.Const(3))
	t0.Xchg(x, prog.Const(9))
	p := b.MustBuild()

	g := eg.NewGraph(1, 1)
	a := Next(p, g, 0, 0)
	if a.Kind != ActFAdd || a.Val != 3 {
		t.Fatalf("fadd action = %+v", a)
	}
	ev := a.MakeEvent(eg.EvID{T: 0, I: 0}, 10)
	if ev.Kind != eg.KUpdate || ev.Val != 13 {
		t.Fatalf("fadd event = %v, want U x=13", ev)
	}
	addAction(g, 0, a, eg.InitID(0))
	a = Next(p, g, 0, 0)
	if a.Kind != ActXchg || a.Val != 9 {
		t.Fatalf("xchg action = %+v", a)
	}
	ev = a.MakeEvent(eg.EvID{T: 0, I: 1}, 3)
	if ev.Kind != eg.KUpdate || ev.Val != 9 {
		t.Fatalf("xchg event = %v, want U x=9", ev)
	}
}

func TestAssumeBlocks(t *testing.T) {
	b := prog.NewBuilder("assume")
	x := b.Loc("x")
	t0 := b.Thread()
	r := t0.Load(x)
	t0.Assume(prog.Eq(prog.R(r), prog.Const(1)))
	t0.Store(x, prog.Const(2))
	p := b.MustBuild()

	g := eg.NewGraph(1, 1)
	addAction(g, 0, Next(p, g, 0, 0), eg.InitID(0)) // reads 0
	a := Next(p, g, 0, 0)
	if a.Kind != ActBlocked || !strings.Contains(a.Msg, "assume") {
		t.Fatalf("action = %+v, want blocked(assume)", a)
	}
}

func TestAssertFails(t *testing.T) {
	b := prog.NewBuilder("assert")
	x := b.Loc("x")
	t0 := b.Thread()
	r := t0.Load(x)
	t0.Assert(prog.Ne(prog.R(r), prog.Const(0)), "x must not be zero")
	p := b.MustBuild()

	g := eg.NewGraph(1, 1)
	addAction(g, 0, Next(p, g, 0, 0), eg.InitID(0))
	a := Next(p, g, 0, 0)
	if a.Kind != ActError || !strings.Contains(a.Msg, "zero") {
		t.Fatalf("action = %+v, want error", a)
	}
}

func TestStepBound(t *testing.T) {
	b := prog.NewBuilder("spin")
	_ = b.Loc("x")
	t0 := b.Thread()
	top := t0.Here()
	t0.Jmp(top)
	p := b.MustBuild()

	g := eg.NewGraph(1, 1)
	a := Next(p, g, 0, 10)
	if a.Kind != ActBlocked || !strings.Contains(a.Msg, "bound") {
		t.Fatalf("action = %+v, want blocked(step bound)", a)
	}
}

func TestBadAddressIsError(t *testing.T) {
	b := prog.NewBuilder("wild")
	x := b.Loc("x")
	t0 := b.Thread()
	r := t0.Load(x)
	t0.LoadAt(prog.Add(prog.R(r), prog.Const(100)))
	p := b.MustBuild()

	g := eg.NewGraph(1, 1)
	addAction(g, 0, Next(p, g, 0, 0), eg.InitID(0))
	a := Next(p, g, 0, 0)
	if a.Kind != ActError || !strings.Contains(a.Msg, "out of range") {
		t.Fatalf("action = %+v, want address error", a)
	}
}

func TestReplayDeterminism(t *testing.T) {
	p := mpProgram(t)
	g := eg.NewGraph(2, 2)
	addAction(g, 0, Next(p, g, 0, 0), eg.EvID{})
	wy := addAction(g, 0, Next(p, g, 0, 0), eg.EvID{})
	addAction(g, 1, Next(p, g, 1, 0), wy)
	a1 := Next(p, g, 1, 0)
	a2 := Next(p, g, 1, 0)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("replay nondeterministic: %+v vs %+v", a1, a2)
	}
}

func TestReplayMismatchPanics(t *testing.T) {
	p := mpProgram(t)
	g := eg.NewGraph(2, 2)
	// Corrupt graph: thread 0's first event claims W x=7, program says 1.
	g.Add(eg.Event{ID: eg.EvID{T: 0, I: 0}, Kind: eg.KWrite, Loc: 0, Val: 7})
	g.CoInsert(0, 0, eg.EvID{T: 0, I: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected replay mismatch panic")
		}
	}()
	Next(p, g, 0, 0)
}

func TestFinalState(t *testing.T) {
	p := mpProgram(t)
	g := eg.NewGraph(2, 2)
	addAction(g, 0, Next(p, g, 0, 0), eg.EvID{})
	wy := addAction(g, 0, Next(p, g, 0, 0), eg.EvID{})
	addAction(g, 1, Next(p, g, 1, 0), wy)
	addAction(g, 1, Next(p, g, 1, 0), eg.InitID(0))
	fs := FinalState(p, g, 0)
	if fs.Mem[0] != 1 || fs.Mem[1] != 1 {
		t.Fatalf("final mem = %v, want [1 1]", fs.Mem)
	}
	if fs.Reg(1, 0) != 1 || fs.Reg(1, 1) != 0 {
		t.Fatalf("final regs t1 = %v, want [1 0]", fs.Regs[1])
	}
	if p.Exists == nil || !p.Exists(fs) {
		t.Fatal("exists predicate must hold for the weak outcome")
	}
}

func TestUnionIDs(t *testing.T) {
	a := []eg.EvID{{T: 0, I: 1}, {T: 0, I: 3}}
	b := []eg.EvID{{T: 0, I: 0}, {T: 0, I: 3}}
	u := unionIDs(nil, a, b)
	want := []eg.EvID{{T: 0, I: 0}, {T: 0, I: 1}, {T: 0, I: 3}}
	if !reflect.DeepEqual(u, want) {
		t.Fatalf("unionIDs = %v, want %v", u, want)
	}
	if got := unionIDs(nil, nil, nil); len(got) != 0 {
		t.Fatalf("empty union = %v", got)
	}
	// The merge orders by thread first and appends after what dst holds.
	dst := []eg.EvID{{T: 9, I: 9}}
	c := []eg.EvID{{T: 0, I: 5}, {T: 2, I: 0}}
	d := []eg.EvID{{T: 1, I: 0}, {T: 2, I: 0}, {T: 2, I: 1}}
	got := unionIDs(dst, c, d)
	want = []eg.EvID{{T: 9, I: 9}, {T: 0, I: 5}, {T: 1, I: 0}, {T: 2, I: 0}, {T: 2, I: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unionIDs onto dst = %v, want %v", got, want)
	}
}
