package eg

import (
	"sync"

	"hmc/internal/relation"
)

// View is a dense snapshot of a graph: every event (init events first, then
// thread events in (thread, index) order) is assigned an index 0..N-1, and
// the standard memory-model relations are exposed as relation.Rel values.
// Relations are memoized; a View must not outlive mutations of its Graph.
//
// The dense layout is arithmetic: init event for location l sits at index l,
// and thread t's events occupy the contiguous block [off[t], threadEnd(t)).
// Idx is therefore a couple of adds, not a map lookup.
type View struct {
	G      *Graph
	Events []Event // dense order
	N      int

	numLocs int
	off     []int // off[t] = dense index of thread t's first event

	// arena is non-nil for pooled views (GetView); Empty then allocates
	// relation rows from it instead of the heap, and PutView recycles the
	// whole bundle for the next consistency check.
	arena *relation.Arena

	po, poloc, rf, rfe, co, fr, eco *relation.Rel
}

// NewView snapshots g with heap-allocated relations. Use GetView/PutView on
// the exploration hot path.
func NewView(g *Graph) *View {
	v := &View{}
	v.init(g)
	return v
}

// viewPool recycles views (and their relation arenas) across consistency
// checks; see GetView.
var viewPool = sync.Pool{New: func() any { return &View{arena: new(relation.Arena)} }}

// GetView returns a pooled view of g whose relations are allocated from a
// per-view arena. It is a drop-in replacement for NewView on the hot path;
// the caller must release it with PutView, after which the view and every
// relation obtained from it are invalid.
func GetView(g *Graph) *View {
	v := viewPool.Get().(*View)
	v.arena.Reset()
	v.init(g)
	return v
}

// PutView recycles a view obtained from GetView. Passing a view made by
// NewView is a harmless no-op.
func PutView(v *View) {
	if v == nil || v.arena == nil {
		return
	}
	v.G = nil
	v.Events = v.Events[:0]
	v.clearMemos()
	viewPool.Put(v)
}

// init (re)builds the dense snapshot of g, reusing v's buffers.
func (v *View) init(g *Graph) {
	v.G = g
	v.numLocs = g.numLocs
	v.Events = v.Events[:0]
	for l := 0; l < g.numLocs; l++ {
		v.Events = append(v.Events, Event{ID: InitID(Loc(l)), Kind: KInit, Loc: Loc(l)})
	}
	v.off = v.off[:0]
	for _, th := range g.threads {
		v.off = append(v.off, len(v.Events))
		v.Events = append(v.Events, th...)
	}
	v.N = len(v.Events)
	v.clearMemos()
}

func (v *View) clearMemos() {
	v.po, v.poloc, v.rf, v.rfe, v.co, v.fr, v.eco = nil, nil, nil, nil, nil, nil, nil
}

// threadEnd returns one past the dense index of thread t's last event.
func (v *View) threadEnd(t int) int {
	if t+1 < len(v.off) {
		return v.off[t+1]
	}
	return v.N
}

// ThreadRange returns the dense interval [lo, hi) holding thread t's
// events, in program order.
func (v *View) ThreadRange(t int) (lo, hi int) { return v.off[t], v.threadEnd(t) }

// Idx returns the dense index of an event.
func (v *View) Idx(id EvID) int {
	if id.IsInit() {
		if id.I < 0 || id.I >= v.numLocs {
			panic("eg: view index for absent event " + id.String())
		}
		return id.I
	}
	if id.T < 0 || id.T >= len(v.off) || id.I < 0 || v.off[id.T]+id.I >= v.threadEnd(id.T) {
		panic("eg: view index for absent event " + id.String())
	}
	return v.off[id.T] + id.I
}

// Empty returns a fresh empty relation over the view's universe (allocated
// from the view's arena when it has one).
func (v *View) Empty() *relation.Rel {
	if v.arena != nil {
		return v.arena.New(v.N)
	}
	return relation.New(v.N)
}

// Po returns program order: same-thread (i < j) pairs, plus every init
// event before every thread event (the conventional extension that makes
// SC's acyclicity include initialisation). Rows are dense intervals in the
// view's layout, so they are built with word fills.
func (v *View) Po() *relation.Rel {
	if v.po != nil {
		return v.po
	}
	r := v.Empty()
	for a := 0; a < v.numLocs; a++ {
		r.AddRange(a, v.numLocs, v.N)
	}
	for t := range v.off {
		hi := v.threadEnd(t)
		for a := v.off[t]; a < hi; a++ {
			r.AddRange(a, a+1, hi)
		}
	}
	v.po = r
	return r
}

// PoLoc returns po restricted to same-location memory accesses (init
// events relate only to accesses of their own location).
func (v *View) PoLoc() *relation.Rel {
	if v.poloc != nil {
		return v.poloc
	}
	r := v.Empty()
	for t := range v.off {
		hi := v.threadEnd(t)
		for a := v.off[t]; a < hi; a++ {
			ea := &v.Events[a]
			if ea.Kind == KFence {
				continue
			}
			r.Add(int(ea.Loc), a) // init write of ea.Loc precedes every access of it
			for b := a + 1; b < hi; b++ {
				if eb := &v.Events[b]; eb.Kind != KFence && eb.Loc == ea.Loc {
					r.Add(a, b)
				}
			}
		}
	}
	v.poloc = r
	return r
}

// Rf returns the reads-from relation (write → read), built by scanning the
// dense event list in order.
func (v *View) Rf() *relation.Rel {
	if v.rf != nil {
		return v.rf
	}
	r := v.Empty()
	for b := v.numLocs; b < v.N; b++ {
		ev := &v.Events[b]
		if !ev.Kind.IsRead() {
			continue
		}
		if w := v.G.rf[ev.ID.T][ev.ID.I]; w != noRF {
			r.Add(v.Idx(w), b)
		}
	}
	v.rf = r
	return r
}

// Rfe returns external reads-from: write and read in different threads
// (init counts as external to every thread).
func (v *View) Rfe() *relation.Rel {
	if v.rfe != nil {
		return v.rfe
	}
	r := v.Empty()
	v.Rf().Pairs(func(a, b int) {
		if v.Events[a].ID.T != v.Events[b].ID.T {
			r.Add(a, b)
		}
	})
	v.rfe = r
	return r
}

// Co returns the coherence order: for each location, init before every
// write, and co-list order between writes.
func (v *View) Co() *relation.Rel {
	if v.co != nil {
		return v.co
	}
	r := v.Empty()
	for l := 0; l < v.numLocs; l++ {
		ws := v.G.co[l]
		for i := 0; i < len(ws); i++ {
			wi := v.Idx(ws[i])
			r.Add(l, wi) // implicit init write first
			for j := i + 1; j < len(ws); j++ {
				r.Add(wi, v.Idx(ws[j]))
			}
		}
	}
	v.co = r
	return r
}

// Fr returns from-read: rf⁻¹ ; co, minus reflexive pairs (an update is a
// co-successor of its own rf source and must not fr-loop onto itself).
// Built directly from each read's rf source and that write's co-suffix,
// with no Inverse/Compose intermediates.
func (v *View) Fr() *relation.Rel {
	if v.fr != nil {
		return v.fr
	}
	fr := v.Empty()
	for b := v.numLocs; b < v.N; b++ {
		ev := &v.Events[b]
		if !ev.Kind.IsRead() {
			continue
		}
		w := v.G.rf[ev.ID.T][ev.ID.I]
		if w == noRF {
			continue
		}
		ws := v.G.co[ev.Loc]
		start := 0
		if !w.IsInit() {
			start = len(ws) // absent from co ⇒ no co-successors
			for i, x := range ws {
				if x == w {
					start = i + 1
					break
				}
			}
		}
		for k := start; k < len(ws); k++ {
			if ws[k] == ev.ID {
				continue // an update never fr-loops onto itself
			}
			fr.Add(b, v.Idx(ws[k]))
		}
	}
	v.fr = fr
	return fr
}

// Eco returns the extended communication order (rf ∪ co ∪ fr)⁺. Memoized
// like the other accessors: models that consult eco several times per check
// (RC11) pay for the closure once.
func (v *View) Eco() *relation.Rel {
	if v.eco != nil {
		return v.eco
	}
	v.eco = v.Rf().Union(v.Co()).UnionWith(v.Fr()).TransitiveClose()
	return v.eco
}

// FilterIdx returns the set of dense indices whose event satisfies pred.
// pred sees each event by pointer, so the scan copies no Event.
func (v *View) FilterIdx(pred func(*Event) bool) []int {
	var out []int
	for i := range v.Events {
		if pred(&v.Events[i]) {
			out = append(out, i)
		}
	}
	return out
}
