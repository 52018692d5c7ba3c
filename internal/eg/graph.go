package eg

import (
	"fmt"
	"strconv"
	"strings"
)

// Graph is an execution graph under construction or complete. It owns the
// per-thread event sequences, the reads-from function and the
// per-location coherence orders. The zero value is unusable; construct
// with NewGraph.
//
// The layout is dense: rf is a per-thread slot slice aligned with the
// thread's events, rf[t][i] holding the source of read (t, i) or noRF.
//
// Invariants (checked by CheckWellFormed):
//   - threads[t] holds events with IDs {T: t, I: 0..len-1} in order, and
//     rf[t] has the same length;
//   - every read/update has an rf source that is a same-location write
//     (or init); every other event's slot is noRF;
//   - co[l] lists exactly the non-init writes/updates to location l, in
//     coherence order (the init write is implicitly first);
//   - stamps are unique and reflect addition order.
type Graph struct {
	numLocs int
	threads [][]Event
	rf      [][]EvID
	co      [][]EvID
	next    int // next stamp

	// Copy-on-write state. Clone shares the event slices, the rf slots and
	// the co lists between parent and clone; a piece is deep-copied only
	// when a graph that does not own it is about to mutate it. own holds
	// one flag per piece — threads, then rf slots, then locations — and a
	// false flag means "possibly shared: copy before writing".
	own []bool
}

// noRF marks the rf slot of an event that has no rf source: a non-read,
// or a read not yet bound.
var noRF = EvID{T: InitThread - 1}

// NewGraph returns an empty graph for a program with the given number of
// threads and shared locations. Initial writes (value 0) exist implicitly
// for every location and carry stamp 0.
func NewGraph(numThreads, numLocs int) *Graph {
	g := newOwned(numThreads, numLocs)
	g.next = 1
	return g
}

// newOwned returns an empty graph shell whose every piece is exclusively
// owned — the construction target for operations that build fresh deep
// structures (Restrict, RenameThreads).
func newOwned(numThreads, numLocs int) *Graph {
	g := newShell(numThreads, numLocs)
	for i := range g.own {
		g.own[i] = true
	}
	return g
}

// newShell allocates a graph's tables with nothing owned: rf slots and co
// lists share one backing array of slice headers.
func newShell(numThreads, numLocs int) *Graph {
	slots := make([][]EvID, numThreads+numLocs)
	return &Graph{
		numLocs: numLocs,
		threads: make([][]Event, numThreads),
		rf:      slots[:numThreads:numThreads],
		co:      slots[numThreads:],
		own:     make([]bool, 2*numThreads+numLocs),
	}
}

// NumThreads returns the number of program threads.
func (g *Graph) NumThreads() int { return len(g.threads) }

// NumLocs returns the number of shared locations.
func (g *Graph) NumLocs() int { return g.numLocs }

// ThreadLen returns the number of events added for thread t.
func (g *Graph) ThreadLen(t int) int { return len(g.threads[t]) }

// NumEvents returns the number of non-init events in the graph.
func (g *Graph) NumEvents() int {
	n := 0
	for _, th := range g.threads {
		n += len(th)
	}
	return n
}

// Clone returns a copy of g (stamps preserved). The copy is lazy: parent
// and clone share the event slices, the rf slots and the co lists until
// one of them mutates a piece, which is deep-copied at that point. Both
// sides give up ownership — in-place patches like SetEventVal and slice
// appends into shared backing arrays would otherwise leak between the two
// graphs. Clone must only be called by a goroutine with exclusive write
// access to g (the explorer clones a state it expands, never a graph
// another worker may be cloning at the same time).
func (g *Graph) Clone() *Graph {
	clear(g.own)
	c := newShell(len(g.threads), g.numLocs)
	c.next = g.next
	copy(c.threads, g.threads)
	copy(c.rf, g.rf)
	copy(c.co, g.co)
	return c
}

// ownThread ensures g exclusively owns thread t's events before a
// mutation, copying the shared slice if necessary.
func (g *Graph) ownThread(t int) {
	if g.own[t] {
		return
	}
	g.threads[t] = append(make([]Event, 0, len(g.threads[t])+1), g.threads[t]...)
	g.own[t] = true
}

// ownRF ensures g exclusively owns thread t's rf slots before a mutation.
func (g *Graph) ownRF(t int) {
	i := len(g.threads) + t
	if g.own[i] {
		return
	}
	g.rf[t] = append(make([]EvID, 0, len(g.rf[t])+1), g.rf[t]...)
	g.own[i] = true
}

// ownCoLoc ensures g exclusively owns co[l] before a mutation.
func (g *Graph) ownCoLoc(l Loc) {
	i := 2*len(g.threads) + int(l)
	if g.own[i] {
		return
	}
	g.co[l] = append(make([]EvID, 0, len(g.co[l])+1), g.co[l]...)
	g.own[i] = true
}

// Add appends ev to its thread, assigning the next stamp. The event's
// ID.I must equal the thread's current length.
func (g *Graph) Add(ev Event) {
	if ev.ID.IsInit() {
		panic("eg: cannot add init events")
	}
	t := ev.ID.T
	if t < 0 || t >= len(g.threads) {
		panic(fmt.Sprintf("eg: thread %d out of range", t))
	}
	if ev.ID.I != len(g.threads[t]) {
		panic(fmt.Sprintf("eg: event %v added out of order (thread has %d events)", ev.ID, len(g.threads[t])))
	}
	ev.Stamp = g.next
	g.next++
	g.ownThread(t)
	g.threads[t] = append(g.threads[t], ev)
	g.ownRF(t)
	g.rf[t] = append(g.rf[t], noRF)
}

// Has reports whether the event id is present (init events always are).
func (g *Graph) Has(id EvID) bool {
	if id.IsInit() {
		return id.I >= 0 && id.I < g.numLocs
	}
	return id.T >= 0 && id.T < len(g.threads) && id.I >= 0 && id.I < len(g.threads[id.T])
}

// Event returns a copy of the event with the given id. Init IDs yield a
// synthetic KInit event with stamp 0.
func (g *Graph) Event(id EvID) Event {
	if id.IsInit() {
		if id.I < 0 || id.I >= g.numLocs {
			panic(fmt.Sprintf("eg: init event for unknown location %d", id.I))
		}
		return Event{ID: id, Kind: KInit, Loc: Loc(id.I)}
	}
	return g.threads[id.T][id.I]
}

// At returns the non-init event id in place, without copying it. The
// pointer is read-only, and it goes stale after any mutation of the
// event's thread (Add, SetEventVal, SetEventKind): the mutation may move
// the thread to a fresh slice, so read what is needed before mutating.
func (g *Graph) At(id EvID) *Event { return &g.threads[id.T][id.I] }

// SetRF records that read r reads from write w. Both must be present,
// r must be a read/update, w a write/update/init, and locations must match.
func (g *Graph) SetRF(r, w EvID) {
	if r.IsInit() {
		panic(fmt.Sprintf("eg: SetRF source %v is not a read", r))
	}
	re := g.At(r)
	if !re.Kind.IsRead() {
		panic(fmt.Sprintf("eg: SetRF source %v is not a read", r))
	}
	wKind, wLoc := KInit, Loc(w.I)
	if !w.IsInit() {
		we := g.At(w)
		wKind, wLoc = we.Kind, we.Loc
	} else if w.I < 0 || w.I >= g.numLocs {
		panic(fmt.Sprintf("eg: init event for unknown location %d", w.I))
	}
	if !wKind.IsWrite() {
		panic(fmt.Sprintf("eg: SetRF target %v is not a write", w))
	}
	if re.Loc != wLoc {
		panic(fmt.Sprintf("eg: SetRF location mismatch %v vs %v", *re, g.Event(w)))
	}
	g.ownRF(r.T)
	g.rf[r.T][r.I] = w
}

// HasReaders reports whether any read in the graph reads from w.
func (g *Graph) HasReaders(w EvID) bool {
	for _, slots := range g.rf {
		for _, src := range slots {
			if src == w {
				return true
			}
		}
	}
	return false
}

// ReadersOf returns the reads whose rf source is w, in (thread, index)
// order.
func (g *Graph) ReadersOf(w EvID) []EvID {
	var out []EvID
	g.ForEachReader(w, func(r EvID) { out = append(out, r) })
	return out
}

// ForEachReader calls fn on every read whose rf source is w, in (thread,
// index) order, without allocating. fn may rebind the read it is given
// (SetRF on it): the scan reads the rf slots afresh at every step, so it
// sees a slot slice that the rebind copied.
func (g *Graph) ForEachReader(w EvID, fn func(r EvID)) {
	for t := range g.rf {
		for i := 0; i < len(g.rf[t]); i++ {
			if g.rf[t][i] == w {
				fn(EvID{T: t, I: i})
			}
		}
	}
}

// RF returns the write that read r reads from.
func (g *Graph) RF(r EvID) (EvID, bool) {
	if r.IsInit() || !g.Has(r) {
		return EvID{}, false
	}
	w := g.rf[r.T][r.I]
	return w, w != noRF
}

// CoLoc returns the coherence order of location l, excluding the implicit
// init write. The returned slice is owned by the graph.
func (g *Graph) CoLoc(l Loc) []EvID { return g.co[l] }

// CoInsert places write w at position pos in location l's coherence order
// (0 = immediately after init). The write event must already be in the
// graph.
func (g *Graph) CoInsert(l Loc, pos int, w EvID) {
	g.ownCoLoc(l)
	ws := g.co[l]
	if pos < 0 || pos > len(ws) {
		panic(fmt.Sprintf("eg: co position %d out of range [0,%d]", pos, len(ws)))
	}
	ws = append(ws, EvID{})
	copy(ws[pos+1:], ws[pos:])
	ws[pos] = w
	g.co[l] = ws
}

// CoIndex returns the position of write w in location l's coherence order,
// or -1 if absent. Init writes have index -1 by convention (they precede
// position 0).
func (g *Graph) CoIndex(l Loc, w EvID) int {
	if w.IsInit() {
		return -1
	}
	for i, x := range g.co[l] {
		if x == w {
			return i
		}
	}
	return -1
}

// WritesTo returns all writes to location l in coherence order, including
// the init write first. The slice is fresh.
func (g *Graph) WritesTo(l Loc) []EvID {
	out := make([]EvID, 0, len(g.co[l])+1)
	out = append(out, InitID(l))
	out = append(out, g.co[l]...)
	return out
}

// CoMax returns the coherence-maximal write to location l (init if no
// other write exists).
func (g *Graph) CoMax(l Loc) EvID {
	if len(g.co[l]) == 0 {
		return InitID(l)
	}
	return g.co[l][len(g.co[l])-1]
}

// ValueOf returns the value written by the given write event (0 for init).
func (g *Graph) ValueOf(w EvID) int64 {
	if w.IsInit() {
		return 0
	}
	return g.At(w).Val
}

// ReadValue returns the value observed by read r via its rf edge.
func (g *Graph) ReadValue(r EvID) (int64, bool) {
	w, ok := g.RF(r)
	if !ok {
		return 0, false
	}
	return g.ValueOf(w), true
}

// SetEventVal patches the written value of a write/update event. Used by
// replay repair after a backward revisit rebinds a read that feeds the
// event's data.
func (g *Graph) SetEventVal(id EvID, val int64) {
	if id.IsInit() || !g.At(id).Kind.IsWrite() {
		panic(fmt.Sprintf("eg: SetEventVal on non-write %v", id))
	}
	g.ownThread(id.T)
	g.threads[id.T][id.I].Val = val
}

// SetEventKind rewrites the kind of an event (KRead ↔ KUpdate, for CAS
// events whose success flips when their rf source changes). Coherence
// membership must be adjusted by the caller (CoInsert/CoRemove).
func (g *Graph) SetEventKind(id EvID, kind Kind) {
	if kind != KRead && kind != KUpdate {
		panic(fmt.Sprintf("eg: SetEventKind to unsupported kind %v", kind))
	}
	g.ownThread(id.T)
	g.threads[id.T][id.I].Kind = kind
}

// CoRemove deletes write w from location l's coherence order.
func (g *Graph) CoRemove(l Loc, w EvID) {
	i := g.CoIndex(l, w)
	if i < 0 {
		panic(fmt.Sprintf("eg: CoRemove of absent %v", w))
	}
	g.ownCoLoc(l)
	g.co[l] = append(g.co[l][:i], g.co[l][i+1:]...)
}

// LastEvent returns the po-last event of thread t, or ok=false if the
// thread has no events yet.
func (g *Graph) LastEvent(t int) (Event, bool) {
	th := g.threads[t]
	if len(th) == 0 {
		return Event{}, false
	}
	return th[len(th)-1], true
}

// MaxStamp returns the largest stamp assigned so far.
func (g *Graph) MaxStamp() int { return g.next - 1 }

// ForEach calls fn for every non-init event in (thread, index) order. The
// event is passed in place: fn must not mutate g, nor keep the pointer
// past the call.
func (g *Graph) ForEach(fn func(*Event)) {
	for _, th := range g.threads {
		for i := range th {
			fn(&th[i])
		}
	}
}

// Restrict returns a new graph keeping, in each thread t, the po-prefix of
// its first cut[t] events — a po-prefix-closed set by construction. It
// panics when cut does not name every thread or names a prefix longer
// than the thread. rf edges whose reader is kept but whose writer was
// deleted are dropped (the caller re-binds them); coherence orders are
// filtered. Stamps of surviving events are preserved, and the stamp
// counter stays at its high-water mark so newly added events are stamped
// after every surviving event.
func (g *Graph) Restrict(cut []int) *Graph {
	if len(cut) != len(g.threads) {
		panic(fmt.Sprintf("eg: Restrict cut names %d threads, graph has %d", len(cut), len(g.threads)))
	}
	kept := func(id EvID) bool { return id.IsInit() || id.I < cut[id.T] }
	c := newOwned(len(g.threads), g.numLocs)
	c.next = g.next
	for t, th := range g.threads {
		if cut[t] < 0 || cut[t] > len(th) {
			panic(fmt.Sprintf("eg: Restrict cut %d for thread %d of %d events", cut[t], t, len(th)))
		}
		c.threads[t] = append([]Event(nil), th[:cut[t]]...)
		c.rf[t] = append([]EvID(nil), g.rf[t][:cut[t]]...)
		for i, w := range c.rf[t] {
			if w != noRF && !kept(w) {
				c.rf[t][i] = noRF
			}
		}
	}
	for l, ws := range g.co {
		for _, w := range ws {
			if kept(w) {
				c.co[l] = append(c.co[l], w)
			}
		}
	}
	return c
}

// Key returns a canonical string identifying the execution: thread event
// lists with written values, rf edges and coherence orders. Two graphs
// over the same program represent the same execution iff their keys match.
// This is the exploration memo's hash input — the hottest path in the
// checker — so it is built with raw integer appends rather than fmt.
func (g *Graph) Key() string {
	b := make([]byte, 0, 16*g.NumEvents()+16)
	appendID := func(id EvID) {
		if id.IsInit() {
			b = append(b, 'i')
			b = strconv.AppendInt(b, int64(id.I), 10)
			return
		}
		b = strconv.AppendInt(b, int64(id.T), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(id.I), 10)
	}
	// An unbound read keys as reading the zero EvID ("0:0"); the golden
	// tests pin this format.
	appendRF := func(t, i int) {
		w := g.rf[t][i]
		if w == noRF {
			w = EvID{}
		}
		appendID(w)
	}
	for t, th := range g.threads {
		b = append(b, 'T')
		b = strconv.AppendInt(b, int64(t), 10)
		b = append(b, '[')
		for i := range th {
			ev := &th[i]
			switch ev.Kind {
			case KRead:
				b = append(b, 'R')
				b = strconv.AppendInt(b, int64(ev.Loc), 10)
				b = append(b, '<')
				appendRF(t, i)
			case KUpdate:
				b = append(b, 'U')
				b = strconv.AppendInt(b, int64(ev.Loc), 10)
				b = append(b, '=')
				b = strconv.AppendInt(b, ev.Val, 10)
				b = append(b, '<')
				appendRF(t, i)
			case KWrite:
				b = append(b, 'W')
				b = strconv.AppendInt(b, int64(ev.Loc), 10)
				b = append(b, '=')
				b = strconv.AppendInt(b, ev.Val, 10)
			case KFence:
				b = append(b, 'F')
				b = strconv.AppendInt(b, int64(ev.Fence), 10)
			}
			b = append(b, ';')
		}
		b = append(b, ']')
	}
	for l := 0; l < g.numLocs; l++ {
		if len(g.co[l]) > 1 {
			b = append(b, 'c')
			b = strconv.AppendInt(b, int64(l), 10)
			b = append(b, ':')
			for _, w := range g.co[l] {
				appendID(w)
				b = append(b, ';')
			}
		}
	}
	return string(b)
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	return g.StringNamed(func(l Loc) string { return fmt.Sprintf("x%d", l) })
}

// StringNamed renders the graph like String but with source-level
// location names (witness output in the CLI and the analyses).
func (g *Graph) StringNamed(locName func(Loc) string) string {
	var sb strings.Builder
	for t, th := range g.threads {
		fmt.Fprintf(&sb, "thread %d:\n", t)
		for _, ev := range th {
			sb.WriteString("  ")
			sb.WriteString(ev.StringNamed(locName))
			if ev.Kind.IsRead() {
				if w, ok := g.RF(ev.ID); ok {
					src := w.String()
					if w.IsInit() {
						src = "init[" + locName(Loc(w.I)) + "]"
					}
					fmt.Fprintf(&sb, "  [rf: %s = %d]", src, g.ValueOf(w))
				} else {
					sb.WriteString("  [rf: ?]")
				}
			}
			sb.WriteByte('\n')
		}
	}
	for l := 0; l < g.numLocs; l++ {
		if len(g.co[l]) > 0 {
			fmt.Fprintf(&sb, "co %s: init", locName(Loc(l)))
			for _, w := range g.co[l] {
				fmt.Fprintf(&sb, " -> %v", w)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// CheckWellFormed verifies the graph invariants, returning a descriptive
// error for the first violation found. Intended for tests and debug mode.
func (g *Graph) CheckWellFormed() error {
	seen := map[int]EvID{0: {T: InitThread, I: 0}}
	for t, th := range g.threads {
		if len(g.rf[t]) != len(th) {
			return fmt.Errorf("thread %d has %d events but %d rf slots", t, len(th), len(g.rf[t]))
		}
		for i, ev := range th {
			if ev.ID.T != t || ev.ID.I != i {
				return fmt.Errorf("event at thread %d pos %d has ID %v", t, i, ev.ID)
			}
			if prev, dup := seen[ev.Stamp]; dup {
				return fmt.Errorf("duplicate stamp %d on %v and %v", ev.Stamp, prev, ev.ID)
			}
			seen[ev.Stamp] = ev.ID
			if !ev.Kind.IsRead() && g.rf[t][i] != noRF {
				return fmt.Errorf("non-read %v has an rf edge", ev.ID)
			}
			if ev.Kind.IsRead() {
				w, ok := g.RF(ev.ID)
				if !ok {
					return fmt.Errorf("read %v has no rf edge", ev.ID)
				}
				if !g.Has(w) {
					return fmt.Errorf("read %v reads from absent %v", ev.ID, w)
				}
				we := g.Event(w)
				if !we.Kind.IsWrite() || we.Loc != ev.Loc {
					return fmt.Errorf("read %v reads from incompatible %v", ev.ID, we)
				}
			}
			for _, dep := range [][]EvID{ev.Addr, ev.Data, ev.Ctrl} {
				for _, d := range dep {
					if d.T != t || d.I >= i {
						return fmt.Errorf("event %v depends on non-po-earlier %v", ev.ID, d)
					}
					if !g.Event(d).Kind.IsRead() {
						return fmt.Errorf("event %v depends on non-read %v", ev.ID, d)
					}
				}
			}
		}
	}
	for l := 0; l < g.numLocs; l++ {
		inCo := map[EvID]bool{}
		for _, w := range g.co[l] {
			if inCo[w] {
				return fmt.Errorf("write %v appears twice in co[%d]", w, l)
			}
			inCo[w] = true
			if !g.Has(w) {
				return fmt.Errorf("co[%d] references absent %v", l, w)
			}
			we := g.Event(w)
			if !we.Kind.IsWrite() || we.Loc != Loc(l) {
				return fmt.Errorf("co[%d] contains incompatible %v", l, we)
			}
		}
		count := 0
		g.ForEach(func(ev *Event) {
			if ev.Kind.IsWrite() && ev.Loc == Loc(l) {
				count++
				if !inCo[ev.ID] {
					// Writes are placed in co the moment they are added,
					// so every write must appear.
				}
			}
		})
		missing := count - len(g.co[l])
		if missing != 0 {
			return fmt.Errorf("co[%d] has %d entries but graph has %d writes", l, len(g.co[l]), count)
		}
	}
	return nil
}
