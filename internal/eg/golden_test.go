package eg

import (
	"encoding/json"
	"testing"
)

// The golden values below pin the canonical state key and the checkpoint
// wire bytes of fixed graphs: a change to either invalidates memo keys,
// collected keys and saved checkpoints, and needs a SchemaVersion or
// CheckpointVersion bump, not a silent drift. A change to the graph's
// internal layout must leave them as they are.

// goldenFixtures builds the graphs whose canonical key and wire encoding
// are pinned. restrict keeps, per thread t, the events with index below
// cut[t].
func goldenFixtures(t *testing.T, restrict func(g *Graph, cut []int) *Graph) map[string]*Graph {
	t.Helper()
	const x, y, z = Loc(0), Loc(1), Loc(2)
	id := func(t, i int) EvID { return EvID{T: t, I: i} }

	// rmw: stores, an FADD update chained behind a store, a full fence, an
	// acquire read, a failed CAS (an exclusive plain read), a store with
	// data and control dependencies, and an idle third thread.
	rmw := func() *Graph {
		g := NewGraph(3, 3)
		g.Add(Event{ID: id(0, 0), Kind: KWrite, Loc: x, Val: 1, PC: 0})
		g.CoInsert(x, 0, id(0, 0))
		g.Add(Event{ID: id(1, 0), Kind: KRead, Loc: x, Mode: ModeAcq, PC: 1})
		g.SetRF(id(1, 0), id(0, 0))
		g.Add(Event{ID: id(0, 1), Kind: KUpdate, Loc: x, Val: 3, Excl: true, PC: 2})
		g.SetRF(id(0, 1), id(0, 0))
		g.CoInsert(x, 1, id(0, 1))
		g.Add(Event{ID: id(0, 2), Kind: KFence, Fence: FenceFull, PC: 3})
		g.Add(Event{ID: id(1, 1), Kind: KRead, Loc: y, Excl: true, PC: 2})
		g.SetRF(id(1, 1), InitID(y))
		g.Add(Event{ID: id(1, 2), Kind: KWrite, Loc: z, Val: 7, Mode: ModeRel, PC: 4,
			Data: []EvID{id(1, 0)}, Ctrl: []EvID{id(1, 0), id(1, 1)}})
		g.CoInsert(z, 0, id(1, 2))
		g.Add(Event{ID: id(0, 3), Kind: KWrite, Loc: y, Val: 5, PC: 4})
		g.CoInsert(y, 0, id(0, 3))
		return g
	}

	// lb: load buffering with both reads reading po-later writes, and a
	// three-write coherence order built out of addition order.
	lb := func() *Graph {
		g := NewGraph(2, 2)
		g.Add(Event{ID: id(0, 0), Kind: KRead, Loc: x})
		g.SetRF(id(0, 0), InitID(x))
		g.Add(Event{ID: id(0, 1), Kind: KWrite, Loc: y, Val: 1, Addr: []EvID{id(0, 0)}})
		g.CoInsert(y, 0, id(0, 1))
		g.Add(Event{ID: id(1, 0), Kind: KRead, Loc: y})
		g.SetRF(id(1, 0), id(0, 1))
		g.Add(Event{ID: id(1, 1), Kind: KWrite, Loc: x, Val: 1})
		g.CoInsert(x, 0, id(1, 1))
		g.SetRF(id(0, 0), id(1, 1))
		g.Add(Event{ID: id(1, 2), Kind: KWrite, Loc: x, Val: 2})
		g.CoInsert(x, 0, id(1, 2))
		g.Add(Event{ID: id(0, 2), Kind: KWrite, Loc: x, Val: 3})
		g.CoInsert(x, 1, id(0, 2))
		return g
	}

	// demoted: a CAS update demoted to a read, its reader re-sourced.
	demoted := func() *Graph {
		g := NewGraph(2, 1)
		g.Add(Event{ID: id(0, 0), Kind: KWrite, Loc: x, Val: 1})
		g.CoInsert(x, 0, id(0, 0))
		g.Add(Event{ID: id(1, 0), Kind: KUpdate, Loc: x, Val: 2, Excl: true})
		g.SetRF(id(1, 0), id(0, 0))
		g.CoInsert(x, 1, id(1, 0))
		g.Add(Event{ID: id(0, 1), Kind: KRead, Loc: x})
		g.SetRF(id(0, 1), id(1, 0))
		g.SetRF(id(0, 1), id(0, 0))
		g.CoRemove(x, id(1, 0))
		g.SetEventKind(id(1, 0), KRead)
		return g
	}

	// restricted: rmw cut back and re-extended, so stamps have gaps and
	// the wire encoding's stamp order differs from (thread, index) order.
	restricted := func() *Graph {
		g := restrict(rmw(), []int{2, 1, 0})
		g.Add(Event{ID: id(2, 0), Kind: KRead, Loc: x})
		g.SetRF(id(2, 0), id(0, 1))
		g.Add(Event{ID: id(1, 1), Kind: KWrite, Loc: y, Val: 9})
		g.CoInsert(y, 0, id(1, 1))
		g.Add(Event{ID: id(0, 2), Kind: KRead, Loc: y})
		g.SetRF(id(0, 2), id(1, 1))
		g.SetRF(id(1, 0), id(0, 1))
		return g
	}

	// renamed: lb with its threads swapped.
	renamed := func() *Graph { return lb().RenameThreads([]int{1, 0}) }

	// unbound: a read added but not yet given an rf source.
	unbound := NewGraph(1, 1)
	unbound.Add(Event{ID: id(0, 0), Kind: KRead, Loc: x})

	return map[string]*Graph{
		"empty":      NewGraph(2, 2),
		"unbound":    unbound,
		"mp":         buildMP(t),
		"rmw":        rmw(),
		"lb":         lb(),
		"demoted":    demoted(),
		"restricted": restricted(),
		"renamed":    renamed(),
	}
}

// threadLens returns the cut that keeps every event of g.
func threadLens(g *Graph) []int {
	cut := make([]int, g.NumThreads())
	for t := range cut {
		cut[t] = g.ThreadLen(t)
	}
	return cut
}

var goldenGraphs = []struct{ name, key, wire string }{
	{"demoted",
		"T0[W0=1;R0<0:0;]T1[R0<0:0;]",
		"{\"threads\":2,\"locs\":1,\"events\":[{\"t\":0,\"i\":0,\"k\":2,\"v\":1},{\"t\":1,\"i\":0,\"k\":1,\"v\":2,\"x\":true},{\"t\":0,\"i\":1,\"k\":1}],\"rf\":[{\"rt\":0,\"ri\":1,\"wt\":0,\"wi\":0},{\"rt\":1,\"ri\":0,\"wt\":0,\"wi\":0}],\"co\":[[{\"t\":0,\"i\":0}]]}"},
	{"empty",
		"T0[]T1[]",
		"{\"threads\":2,\"locs\":2,\"co\":[null,null]}"},
	{"lb",
		"T0[R0<1:1;W1=1;W0=3;]T1[R1<0:1;W0=1;W0=2;]c0:1:2;0:2;1:1;",
		"{\"threads\":2,\"locs\":2,\"events\":[{\"t\":0,\"i\":0,\"k\":1},{\"t\":0,\"i\":1,\"k\":2,\"l\":1,\"v\":1,\"addr\":[0]},{\"t\":1,\"i\":0,\"k\":1,\"l\":1},{\"t\":1,\"i\":1,\"k\":2,\"v\":1},{\"t\":1,\"i\":2,\"k\":2,\"v\":2},{\"t\":0,\"i\":2,\"k\":2,\"v\":3}],\"rf\":[{\"rt\":0,\"ri\":0,\"wt\":1,\"wi\":1},{\"rt\":1,\"ri\":0,\"wt\":0,\"wi\":1}],\"co\":[[{\"t\":1,\"i\":2},{\"t\":0,\"i\":2},{\"t\":1,\"i\":1}],[{\"t\":0,\"i\":1}]]}"},
	{"mp",
		"T0[W0=1;W1=1;]T1[R1<0:1;R0<i0;]",
		"{\"threads\":2,\"locs\":2,\"events\":[{\"t\":0,\"i\":0,\"k\":2,\"v\":1},{\"t\":0,\"i\":1,\"k\":2,\"l\":1,\"v\":1},{\"t\":1,\"i\":0,\"k\":1,\"l\":1},{\"t\":1,\"i\":1,\"k\":1}],\"rf\":[{\"rt\":1,\"ri\":0,\"wt\":0,\"wi\":1},{\"rt\":1,\"ri\":1,\"wt\":-1,\"wi\":0}],\"co\":[[{\"t\":0,\"i\":0}],[{\"t\":0,\"i\":1}]]}"},
	{"renamed",
		"T0[R1<1:1;W0=1;W0=2;]T1[R0<0:1;W1=1;W0=3;]c0:0:2;1:2;0:1;",
		"{\"threads\":2,\"locs\":2,\"events\":[{\"t\":1,\"i\":0,\"k\":1},{\"t\":1,\"i\":1,\"k\":2,\"l\":1,\"v\":1,\"addr\":[0]},{\"t\":0,\"i\":0,\"k\":1,\"l\":1},{\"t\":0,\"i\":1,\"k\":2,\"v\":1},{\"t\":0,\"i\":2,\"k\":2,\"v\":2},{\"t\":1,\"i\":2,\"k\":2,\"v\":3}],\"rf\":[{\"rt\":0,\"ri\":0,\"wt\":1,\"wi\":1},{\"rt\":1,\"ri\":0,\"wt\":0,\"wi\":1}],\"co\":[[{\"t\":0,\"i\":2},{\"t\":1,\"i\":2},{\"t\":0,\"i\":1}],[{\"t\":1,\"i\":1}]]}"},
	{"restricted",
		"T0[W0=1;U0=3<0:0;R1<1:1;]T1[R0<0:1;W1=9;]T2[R0<0:1;]c0:0:0;0:1;",
		"{\"threads\":3,\"locs\":3,\"events\":[{\"t\":0,\"i\":0,\"k\":2,\"v\":1},{\"t\":1,\"i\":0,\"k\":1,\"m\":2,\"pc\":1},{\"t\":0,\"i\":1,\"k\":3,\"v\":3,\"x\":true,\"pc\":2},{\"t\":2,\"i\":0,\"k\":1},{\"t\":1,\"i\":1,\"k\":2,\"l\":1,\"v\":9},{\"t\":0,\"i\":2,\"k\":1,\"l\":1}],\"rf\":[{\"rt\":0,\"ri\":1,\"wt\":0,\"wi\":0},{\"rt\":0,\"ri\":2,\"wt\":1,\"wi\":1},{\"rt\":1,\"ri\":0,\"wt\":0,\"wi\":1},{\"rt\":2,\"ri\":0,\"wt\":0,\"wi\":1}],\"co\":[[{\"t\":0,\"i\":0},{\"t\":0,\"i\":1}],[{\"t\":1,\"i\":1}],null]}"},
	{"rmw",
		"T0[W0=1;U0=3<0:0;F1;W1=5;]T1[R0<0:0;R1<i1;W2=7;]T2[]c0:0:0;0:1;",
		"{\"threads\":3,\"locs\":3,\"events\":[{\"t\":0,\"i\":0,\"k\":2,\"v\":1},{\"t\":1,\"i\":0,\"k\":1,\"m\":2,\"pc\":1},{\"t\":0,\"i\":1,\"k\":3,\"v\":3,\"x\":true,\"pc\":2},{\"t\":0,\"i\":2,\"k\":4,\"f\":1,\"pc\":3},{\"t\":1,\"i\":1,\"k\":1,\"l\":1,\"x\":true,\"pc\":2},{\"t\":1,\"i\":2,\"k\":2,\"l\":2,\"v\":7,\"m\":3,\"pc\":4,\"data\":[0],\"ctrl\":[0,1]},{\"t\":0,\"i\":3,\"k\":2,\"l\":1,\"v\":5,\"pc\":4}],\"rf\":[{\"rt\":0,\"ri\":1,\"wt\":0,\"wi\":0},{\"rt\":1,\"ri\":0,\"wt\":0,\"wi\":0},{\"rt\":1,\"ri\":1,\"wt\":-1,\"wi\":1}],\"co\":[[{\"t\":0,\"i\":0},{\"t\":0,\"i\":1}],[{\"t\":0,\"i\":3}],[{\"t\":1,\"i\":2}]]}"},
	{"unbound",
		"T0[R0<0:0;]",
		"{\"threads\":1,\"locs\":1,\"events\":[{\"t\":0,\"i\":0,\"k\":1}],\"co\":[null]}"},
}

// TestGoldenKeyAndWire checks Graph.Key and the EncodeGraph bytes of the
// fixtures against the pinned values, and that every fixture but the
// unbound read is well-formed and survives an encode/decode round trip.
func TestGoldenKeyAndWire(t *testing.T) {
	fx := goldenFixtures(t, (*Graph).Restrict)
	if len(fx) != len(goldenGraphs) {
		t.Fatalf("%d fixtures, %d golden values", len(fx), len(goldenGraphs))
	}
	for _, want := range goldenGraphs {
		g := fx[want.name]
		if g == nil {
			t.Fatalf("no fixture %q", want.name)
		}
		if got := g.Key(); got != want.key {
			t.Errorf("%s: Key\n got %s\nwant %s", want.name, got, want.key)
		}
		wire, err := json.Marshal(EncodeGraph(g))
		if err != nil {
			t.Fatal(err)
		}
		if string(wire) != want.wire {
			t.Errorf("%s: EncodeGraph\n got %s\nwant %s", want.name, wire, want.wire)
		}
		if want.name == "unbound" {
			continue
		}
		if err := g.CheckWellFormed(); err != nil {
			t.Errorf("%s: %v", want.name, err)
		}
		back, err := EncodeGraph(g).Decode()
		if err != nil {
			t.Fatalf("%s: decode: %v", want.name, err)
		}
		if back.Key() != want.key {
			t.Errorf("%s: key changed by an encode/decode round trip", want.name)
		}
	}
}
