package eg

import (
	"fmt"
	"sort"
)

// This file is the graph wire codec backing exploration checkpoints
// (internal/core/checkpoint.go): a deterministic, versioned, panic-free
// serialization of execution graphs.
//
// Canonical form: events are listed in stamp order and re-stamped
// contiguously on decode (1..n). Stamps may have gaps in a live graph —
// Restrict keeps the counter at its high-water mark — but the explorer
// only ever compares stamps for *relative* order (revisit keep-sets) and
// excludes them from semantic keys, so renumbering preserves behaviour
// while making encode→decode→encode byte-identical.

// Codec bounds: a decoded graph description beyond these limits is
// rejected outright, so a corrupt or adversarial snapshot cannot balloon
// allocation before validation (the fuzz target's contract).
const (
	maxWireThreads = 1 << 12
	maxWireLocs    = 1 << 16
	maxWireEvents  = 1 << 20
)

// WireEvent is one serialized event. Dependency sets store only the
// po-index of the same-thread earlier read they reference (the thread is
// the event's own, by the graph invariant).
type WireEvent struct {
	T     int   `json:"t"`
	I     int   `json:"i"`
	Kind  uint8 `json:"k"`
	Loc   int   `json:"l,omitempty"`
	Val   int64 `json:"v,omitempty"`
	Fence uint8 `json:"f,omitempty"`
	Mode  uint8 `json:"m,omitempty"`
	Excl  bool  `json:"x,omitempty"`
	PC    int   `json:"pc,omitempty"`
	Addr  []int `json:"addr,omitempty"`
	Data  []int `json:"data,omitempty"`
	Ctrl  []int `json:"ctrl,omitempty"`
}

// WireRF is one reads-from edge; the writer thread is InitThread (-1) for
// initial writes, with WI naming the location.
type WireRF struct {
	RT int `json:"rt"`
	RI int `json:"ri"`
	WT int `json:"wt"`
	WI int `json:"wi"`
}

// WireID locates a non-init event (coherence entries).
type WireID struct {
	T int `json:"t"`
	I int `json:"i"`
}

// WireGraph is the serialized form of a Graph. Events are in stamp order,
// RF edges in reader (thread, index) order, and Co lists one slice per
// location in coherence order — all deterministic, so equal graphs encode
// to equal bytes.
type WireGraph struct {
	Threads int         `json:"threads"`
	Locs    int         `json:"locs"`
	Events  []WireEvent `json:"events,omitempty"`
	RF      []WireRF    `json:"rf,omitempty"`
	Co      [][]WireID  `json:"co,omitempty"`
}

// EncodeGraph serializes g. The graph is assumed well-formed (it came out
// of the explorer); Decode re-verifies everything on the way back in.
func EncodeGraph(g *Graph) *WireGraph {
	wg := &WireGraph{Threads: g.NumThreads(), Locs: g.NumLocs()}
	evs := make([]*Event, 0, g.NumEvents())
	g.ForEach(func(ev *Event) { evs = append(evs, ev) })
	sort.Slice(evs, func(i, j int) bool { return evs[i].Stamp < evs[j].Stamp })
	for _, ev := range evs {
		wg.Events = append(wg.Events, WireEvent{
			T:     ev.ID.T,
			I:     ev.ID.I,
			Kind:  uint8(ev.Kind),
			Loc:   int(ev.Loc),
			Val:   ev.Val,
			Fence: uint8(ev.Fence),
			Mode:  uint8(ev.Mode),
			Excl:  ev.Excl,
			PC:    ev.PC,
			Addr:  depIndexes(ev.Addr),
			Data:  depIndexes(ev.Data),
			Ctrl:  depIndexes(ev.Ctrl),
		})
	}
	g.ForEach(func(ev *Event) {
		if !ev.Kind.IsRead() {
			return
		}
		if w, ok := g.RF(ev.ID); ok {
			wg.RF = append(wg.RF, WireRF{RT: ev.ID.T, RI: ev.ID.I, WT: w.T, WI: w.I})
		}
	})
	if g.NumLocs() > 0 {
		wg.Co = make([][]WireID, g.NumLocs())
		for l := 0; l < g.NumLocs(); l++ {
			for _, w := range g.CoLoc(Loc(l)) {
				wg.Co[l] = append(wg.Co[l], WireID{T: w.T, I: w.I})
			}
		}
	}
	return wg
}

func depIndexes(ids []EvID) []int {
	if len(ids) == 0 {
		return nil
	}
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = id.I
	}
	return out
}

// Decode reconstructs the graph, validating every structural invariant a
// live Graph enforces by panicking — thread/location ranges, po order,
// dependency shape, rf typing, coherence membership — and finishing with
// CheckWellFormed. It never panics on corrupt input: anything Add/SetRF/
// CoInsert would reject is pre-checked, and a defensive recover converts
// surprises into errors.
func (w *WireGraph) Decode() (g *Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("eg: corrupt wire graph: %v", r)
		}
	}()
	if w.Threads < 0 || w.Threads > maxWireThreads {
		return nil, fmt.Errorf("eg: wire graph thread count %d out of range", w.Threads)
	}
	if w.Locs < 0 || w.Locs > maxWireLocs {
		return nil, fmt.Errorf("eg: wire graph location count %d out of range", w.Locs)
	}
	if len(w.Events) > maxWireEvents {
		return nil, fmt.Errorf("eg: wire graph has %d events (max %d)", len(w.Events), maxWireEvents)
	}
	if len(w.Co) != 0 && len(w.Co) != w.Locs {
		return nil, fmt.Errorf("eg: wire graph co has %d locations, want %d", len(w.Co), w.Locs)
	}
	g = NewGraph(w.Threads, w.Locs)
	for n, we := range w.Events {
		kind := Kind(we.Kind)
		if kind != KRead && kind != KWrite && kind != KUpdate && kind != KFence {
			return nil, fmt.Errorf("eg: wire event %d has kind %d", n, we.Kind)
		}
		if we.T < 0 || we.T >= w.Threads {
			return nil, fmt.Errorf("eg: wire event %d names thread %d of %d", n, we.T, w.Threads)
		}
		if we.I != g.ThreadLen(we.T) {
			return nil, fmt.Errorf("eg: wire event %d out of po order (index %d, thread has %d)", n, we.I, g.ThreadLen(we.T))
		}
		if kind != KFence && (we.Loc < 0 || we.Loc >= w.Locs) {
			return nil, fmt.Errorf("eg: wire event %d accesses location %d of %d", n, we.Loc, w.Locs)
		}
		if we.Fence > uint8(FenceLD) {
			return nil, fmt.Errorf("eg: wire event %d has fence kind %d", n, we.Fence)
		}
		if we.Mode > uint8(ModeSC) {
			return nil, fmt.Errorf("eg: wire event %d has mode %d", n, we.Mode)
		}
		ev := Event{
			ID:    EvID{T: we.T, I: we.I},
			Kind:  kind,
			Loc:   Loc(we.Loc),
			Val:   we.Val,
			Fence: FenceKind(we.Fence),
			Mode:  Mode(we.Mode),
			Excl:  we.Excl,
			PC:    we.PC,
		}
		for _, dep := range []struct {
			name string
			idxs []int
			out  *[]EvID
		}{{"addr", we.Addr, &ev.Addr}, {"data", we.Data, &ev.Data}, {"ctrl", we.Ctrl, &ev.Ctrl}} {
			for _, i := range dep.idxs {
				if i < 0 || i >= we.I {
					return nil, fmt.Errorf("eg: wire event %d has %s dep on index %d (not po-earlier)", n, dep.name, i)
				}
				if !g.Event(EvID{T: we.T, I: i}).Kind.IsRead() {
					return nil, fmt.Errorf("eg: wire event %d has %s dep on non-read index %d", n, dep.name, i)
				}
				*dep.out = append(*dep.out, EvID{T: we.T, I: i})
			}
		}
		g.Add(ev)
	}
	for n, rf := range w.RF {
		r := EvID{T: rf.RT, I: rf.RI}
		wid := EvID{T: rf.WT, I: rf.WI}
		if !g.Has(r) || r.IsInit() {
			return nil, fmt.Errorf("eg: wire rf %d names absent read %v", n, r)
		}
		if !g.Has(wid) {
			return nil, fmt.Errorf("eg: wire rf %d names absent write %v", n, wid)
		}
		re, we := g.Event(r), g.Event(wid)
		if !re.Kind.IsRead() || !we.Kind.IsWrite() || re.Loc != we.Loc {
			return nil, fmt.Errorf("eg: wire rf %d is ill-typed (%v -> %v)", n, r, wid)
		}
		if _, dup := g.RF(r); dup {
			return nil, fmt.Errorf("eg: wire rf %d rebinds read %v", n, r)
		}
		g.SetRF(r, wid)
	}
	for l, ws := range w.Co {
		for n, wid := range ws {
			id := EvID{T: wid.T, I: wid.I}
			if id.IsInit() || !g.Has(id) {
				return nil, fmt.Errorf("eg: wire co[%d] entry %d names absent %v", l, n, id)
			}
			ev := g.Event(id)
			if !ev.Kind.IsWrite() || ev.Loc != Loc(l) {
				return nil, fmt.Errorf("eg: wire co[%d] entry %d is not a write to it (%v)", l, n, id)
			}
			if g.CoIndex(Loc(l), id) >= 0 {
				return nil, fmt.Errorf("eg: wire co[%d] lists %v twice", l, id)
			}
			g.CoInsert(Loc(l), n, id)
		}
	}
	if err := g.CheckWellFormed(); err != nil {
		return nil, fmt.Errorf("eg: decoded graph ill-formed: %w", err)
	}
	return g, nil
}
