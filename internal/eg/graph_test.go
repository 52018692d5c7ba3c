package eg

import (
	"strings"
	"testing"
)

// buildMP constructs the classic message-passing execution:
//
//	T0: W x=1; W y=1        T1: R y (from T0's Wy); R x (from init)
func buildMP(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(2, 2)
	const x, y = Loc(0), Loc(1)
	wx := Event{ID: EvID{T: 0, I: 0}, Kind: KWrite, Loc: x, Val: 1}
	wy := Event{ID: EvID{T: 0, I: 1}, Kind: KWrite, Loc: y, Val: 1}
	ry := Event{ID: EvID{T: 1, I: 0}, Kind: KRead, Loc: y}
	rx := Event{ID: EvID{T: 1, I: 1}, Kind: KRead, Loc: x}
	g.Add(wx)
	g.CoInsert(x, 0, wx.ID)
	g.Add(wy)
	g.CoInsert(y, 0, wy.ID)
	g.Add(ry)
	g.SetRF(ry.ID, wy.ID)
	g.Add(rx)
	g.SetRF(rx.ID, InitID(x))
	return g
}

func TestAddAndEventAccess(t *testing.T) {
	g := buildMP(t)
	if g.NumEvents() != 4 {
		t.Fatalf("NumEvents = %d, want 4", g.NumEvents())
	}
	ev := g.Event(EvID{T: 0, I: 1})
	if ev.Kind != KWrite || ev.Loc != 1 || ev.Val != 1 {
		t.Fatalf("unexpected event %v", ev)
	}
	init := g.Event(InitID(0))
	if init.Kind != KInit || init.Stamp != 0 {
		t.Fatalf("init event wrong: %v", init)
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatalf("well-formedness: %v", err)
	}
}

func TestStampsMonotone(t *testing.T) {
	g := buildMP(t)
	var prev int
	g.ForEach(func(ev *Event) {
		if ev.Stamp <= 0 {
			t.Errorf("event %v has stamp %d", ev.ID, ev.Stamp)
		}
		_ = prev
	})
	s1 := g.Event(EvID{T: 0, I: 0}).Stamp
	s2 := g.Event(EvID{T: 0, I: 1}).Stamp
	if s1 >= s2 {
		t.Errorf("stamps not increasing along po: %d, %d", s1, s2)
	}
}

func TestAddOutOfOrderPanics(t *testing.T) {
	g := NewGraph(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order add")
		}
	}()
	g.Add(Event{ID: EvID{T: 0, I: 1}, Kind: KWrite, Loc: 0})
}

func TestReadValueAndValueOf(t *testing.T) {
	g := buildMP(t)
	v, ok := g.ReadValue(EvID{T: 1, I: 0})
	if !ok || v != 1 {
		t.Fatalf("ReadValue(ry) = %d,%v want 1,true", v, ok)
	}
	v, ok = g.ReadValue(EvID{T: 1, I: 1})
	if !ok || v != 0 {
		t.Fatalf("ReadValue(rx) = %d,%v want 0,true (reads init)", v, ok)
	}
	if g.ValueOf(InitID(1)) != 0 {
		t.Fatal("init value must be 0")
	}
}

func TestCoInsertOrderAndCoMax(t *testing.T) {
	g := NewGraph(1, 1)
	w1 := Event{ID: EvID{T: 0, I: 0}, Kind: KWrite, Loc: 0, Val: 1}
	w2 := Event{ID: EvID{T: 0, I: 1}, Kind: KWrite, Loc: 0, Val: 2}
	w3 := Event{ID: EvID{T: 0, I: 2}, Kind: KWrite, Loc: 0, Val: 3}
	g.Add(w1)
	g.CoInsert(0, 0, w1.ID)
	g.Add(w2)
	g.CoInsert(0, 1, w2.ID)
	g.Add(w3)
	g.CoInsert(0, 1, w3.ID) // squeeze between w1 and w2
	got := g.CoLoc(0)
	want := []EvID{w1.ID, w3.ID, w2.ID}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("co order %v, want %v", got, want)
		}
	}
	if g.CoMax(0) != w2.ID {
		t.Fatalf("CoMax = %v, want %v", g.CoMax(0), w2.ID)
	}
	if g.CoIndex(0, w3.ID) != 1 {
		t.Fatalf("CoIndex(w3) = %d, want 1", g.CoIndex(0, w3.ID))
	}
	if g.CoIndex(0, InitID(0)) != -1 {
		t.Fatal("init CoIndex must be -1")
	}
}

func TestWritesToIncludesInit(t *testing.T) {
	g := buildMP(t)
	ws := g.WritesTo(0)
	if len(ws) != 2 || !ws[0].IsInit() {
		t.Fatalf("WritesTo(x) = %v", ws)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := buildMP(t)
	c := g.Clone()
	c.Add(Event{ID: EvID{T: 1, I: 2}, Kind: KFence, Fence: FenceFull})
	if g.NumEvents() != 4 || c.NumEvents() != 5 {
		t.Fatal("clone shares thread storage")
	}
	c.SetRF(EvID{T: 1, I: 1}, EvID{T: 0, I: 0})
	if w, _ := g.RF(EvID{T: 1, I: 1}); !w.IsInit() {
		t.Fatal("clone shares rf map")
	}
	if g.Key() == c.Key() {
		t.Fatal("distinct executions must have distinct keys")
	}
}

func TestRestrict(t *testing.T) {
	g := buildMP(t)
	// Drop T1's second read (a po-suffix), keep everything else.
	dropped := EvID{T: 1, I: 1}
	r := g.Restrict([]int{2, 1})
	if r.NumEvents() != 3 {
		t.Fatalf("restricted NumEvents = %d, want 3", r.NumEvents())
	}
	if r.Has(dropped) {
		t.Fatal("dropped event still present")
	}
	if _, ok := r.RF(dropped); ok {
		t.Fatal("rf edge of dropped read survived")
	}
	if w, ok := r.RF(EvID{T: 1, I: 0}); !ok || (w != EvID{T: 0, I: 1}) {
		t.Fatal("rf edge of kept read lost")
	}
	// Stamp counter must not regress.
	r.Add(Event{ID: EvID{T: 1, I: 1}, Kind: KRead, Loc: 0})
	newStamp := r.Event(EvID{T: 1, I: 1}).Stamp
	if newStamp <= g.Event(EvID{T: 1, I: 0}).Stamp {
		t.Fatalf("new stamp %d not after surviving stamps", newStamp)
	}
}

func TestRestrictPanicsOnCutPastThread(t *testing.T) {
	for _, cut := range [][]int{{3, 2}, {2, -1}, {2}} {
		func() {
			g := buildMP(t)
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for cut %v of a 2x2-event graph", cut)
				}
			}()
			g.Restrict(cut)
		}()
	}
}

func TestKeyDistinguishesRf(t *testing.T) {
	g1 := buildMP(t)
	g2 := buildMP(t)
	g2.SetRF(EvID{T: 1, I: 1}, EvID{T: 0, I: 0}) // rx reads 1 instead of init
	if g1.Key() == g2.Key() {
		t.Fatal("keys must differ when rf differs")
	}
}

func TestStringRendering(t *testing.T) {
	g := buildMP(t)
	s := g.String()
	for _, want := range []string{"thread 0", "thread 1", "W x0=1", "rf"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestCheckWellFormedCatchesMissingRf(t *testing.T) {
	g := NewGraph(1, 1)
	g.Add(Event{ID: EvID{T: 0, I: 0}, Kind: KRead, Loc: 0})
	if err := g.CheckWellFormed(); err == nil {
		t.Fatal("read without rf must be ill-formed")
	}
}

func TestCheckWellFormedCatchesCoMismatch(t *testing.T) {
	g := NewGraph(1, 1)
	g.Add(Event{ID: EvID{T: 0, I: 0}, Kind: KWrite, Loc: 0, Val: 1})
	// Write never placed into co.
	if err := g.CheckWellFormed(); err == nil {
		t.Fatal("write missing from co must be ill-formed")
	}
}

func TestEventStringForms(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{ID: EvID{T: 0, I: 0}, Kind: KWrite, Loc: 2, Val: 7}, "t0:0: W x2=7"},
		{Event{ID: EvID{T: 1, I: 3}, Kind: KRead, Loc: 0}, "t1:3: R x0"},
		{Event{ID: InitID(1), Kind: KInit, Loc: 1}, "init[x1]: init x1=0"},
		{Event{ID: EvID{T: 0, I: 1}, Kind: KFence, Fence: FenceFull}, "t0:1: F.full"},
	}
	for _, c := range cases {
		if got := c.ev.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestSameStaticEvent(t *testing.T) {
	a := Event{ID: EvID{T: 0, I: 0}, Kind: KWrite, Loc: 0, Val: 1}
	b := a
	if !SameStaticEvent(a, b) {
		t.Fatal("identical events must match")
	}
	b.Val = 2
	if SameStaticEvent(a, b) {
		t.Fatal("different written value must not match")
	}
	r1 := Event{ID: EvID{T: 0, I: 0}, Kind: KRead, Loc: 0, Val: 5}
	r2 := Event{ID: EvID{T: 0, I: 0}, Kind: KRead, Loc: 0, Val: 9}
	if !SameStaticEvent(r1, r2) {
		t.Fatal("read value is rf-determined and must not affect identity")
	}
	r2.Data = []EvID{{T: 0, I: 0}}
	if SameStaticEvent(r1, r2) {
		t.Fatal("different deps must not match")
	}
}

func TestWriteDot(t *testing.T) {
	g := buildMP(t)
	var buf strings.Builder
	if err := g.WriteDot(&buf, func(l Loc) string { return []string{"x", "y"}[l] }); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph execution",
		"cluster_t0", "cluster_t1",
		`"W x = 1"`, `"W y = 1"`, `"R y = 1"`, `"R x = 0"`,
		"label=rf", "label=co",
		"init0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	var buf2 strings.Builder
	g.WriteDot(&buf2, func(l Loc) string { return []string{"x", "y"}[l] })
	if buf.String() != buf2.String() {
		t.Error("dot output is nondeterministic")
	}
}

func TestWriteDotDeps(t *testing.T) {
	g := NewGraph(1, 2)
	r := Event{ID: EvID{T: 0, I: 0}, Kind: KRead, Loc: 0}
	w := Event{ID: EvID{T: 0, I: 1}, Kind: KWrite, Loc: 1, Val: 1, Data: []EvID{r.ID}}
	g.Add(r)
	g.SetRF(r.ID, InitID(0))
	g.Add(w)
	g.CoInsert(1, 0, w.ID)
	var buf strings.Builder
	if err := g.WriteDot(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "label=data") {
		t.Errorf("dependency edge missing:\n%s", buf.String())
	}
}
