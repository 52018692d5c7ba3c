// Package interp deterministically replays program threads against an
// execution graph. This is the front end of the HMC algorithm: the graph
// fully determines each thread's behaviour (reads take their values from
// their rf edges), so replaying a thread either consumes events already in
// the graph or stops at the thread's *next* action — the event the explorer
// should consider adding, together with its syntactic dependency sets.
//
// Dependency tracking is taint-based: every register carries the set of
// same-thread load events its value was derived from; address/data
// dependencies of an access are the taints of its operand expressions, and
// control dependencies are the accumulated taints of all branch conditions
// evaluated on the path so far (accumulation is the standard conservative
// treatment: a control dependency never disappears at a join).
//
// The package offers two replay modes:
//
//   - Next: normal exploration. Consumed events must match the program
//     exactly; a mismatch panics, because it means the explorer broke its
//     own invariants.
//   - Repair: after a backward revisit rebinds a read, downstream values
//     may be stale. Repair re-replays a thread, patching written values
//     (and flipping CAS success/failure, with the coherence adjustment
//     that entails). It reports structural divergence — a different
//     instruction path, location, or dependency set — as non-repairable,
//     which causes the explorer to abandon the revisit. Keeping repair
//     value-only is what makes exploration constructive: values can never
//     appear out of thin air.
//
// RepairAll drives Repair to a fixpoint in dirty-thread passes. It starts
// from the one rebound read, whose thread is the only one that can replay
// differently: every other thread replays unchanged, because the graph
// was repaired before the rebind and nothing it reads has moved. A patch
// to a write makes the threads of its readers dirty, and each pass
// replays only the dirty threads. A clean thread's replay would be a
// no-op, so the patches, the verdict and the non-convergence rejections
// are those of re-replaying every thread in every pass.
//
// Replay takes its register file, taint table and taint sets from a pool,
// so a replay that consumes events allocates nothing; only the dependency
// sets of the action Next returns (which become an event's) are fresh
// memory. Actions carry no registers: Scan hands over a complete
// execution's register files, and FinalState copies them itself.
package interp

import (
	"fmt"
	"slices"
	"sync"

	"hmc/internal/eg"
	"hmc/internal/prog"
)

// ActionKind classifies the next action of a thread.
type ActionKind uint8

const (
	ActLoad    ActionKind = iota // add a read event
	ActStore                     // add a write event
	ActCAS                       // add an update (success) or read (failure)
	ActFAdd                      // add an update writing read+Val
	ActXchg                      // add an update writing Val
	ActFence                     // add a fence event
	ActDone                      // thread finished
	ActBlocked                   // assume failed or step bound exceeded
	ActError                     // assertion failed
)

func (k ActionKind) String() string {
	switch k {
	case ActLoad:
		return "load"
	case ActStore:
		return "store"
	case ActCAS:
		return "cas"
	case ActFAdd:
		return "fadd"
	case ActXchg:
		return "xchg"
	case ActFence:
		return "fence"
	case ActDone:
		return "done"
	case ActBlocked:
		return "blocked"
	case ActError:
		return "error"
	}
	return fmt.Sprintf("ActionKind(%d)", uint8(k))
}

// IsRMW reports whether the action produces a potential update event.
func (k ActionKind) IsRMW() bool { return k == ActCAS || k == ActFAdd || k == ActXchg }

// Action is a thread's next step, as determined by replay.
type Action struct {
	Kind  ActionKind
	Loc   eg.Loc
	Val   int64 // store value; xchg value; fadd addend
	Old   int64 // CAS expected value
	New   int64 // CAS replacement value
	Fence eg.FenceKind
	Mode  eg.Mode // C11-style order annotation (rc11 model)
	Msg   string  // error/blocked description

	// Dependency sets for the event to be added.
	Addr []eg.EvID
	Data []eg.EvID
	Ctrl []eg.EvID

	// PC is the index of the instruction producing this action in its
	// thread's code (meaningful for event actions; the static analyzer's
	// CheckDeps sanitizer matches dynamic taints against the static
	// dependency sets computed for this instruction).
	PC int
}

// MakeEvent materializes the event this action adds at id, given the value
// the event would read (readVal; ignored for non-reads). For ActCAS the
// event is an update when readVal equals the expected value and a plain
// read otherwise.
func (a Action) MakeEvent(id eg.EvID, readVal int64) eg.Event {
	ev := eg.Event{ID: id, Loc: a.Loc, Addr: a.Addr, Data: a.Data, Ctrl: a.Ctrl, Mode: a.Mode, PC: a.PC}
	ev.Excl = a.Kind.IsRMW()
	switch a.Kind {
	case ActLoad:
		ev.Kind = eg.KRead
	case ActStore:
		ev.Kind = eg.KWrite
		ev.Val = a.Val
	case ActCAS:
		if readVal == a.Old {
			ev.Kind = eg.KUpdate
			ev.Val = a.New
		} else {
			ev.Kind = eg.KRead
		}
	case ActFAdd:
		ev.Kind = eg.KUpdate
		ev.Val = readVal + a.Val
	case ActXchg:
		ev.Kind = eg.KUpdate
		ev.Val = a.Val
	case ActFence:
		ev.Kind = eg.KFence
		ev.Fence = a.Fence
	default:
		panic("interp: MakeEvent on non-event action " + a.Kind.String())
	}
	return ev
}

// Reads reports whether the action's event reads memory.
func (a Action) Reads() bool { return a.Kind == ActLoad || a.Kind.IsRMW() }

// DefaultMaxSteps bounds replay of a single thread (loop unrolling bound).
const DefaultMaxSteps = 4096

// Next replays thread t of p against g and returns its next action.
// maxSteps bounds the number of interpreted instructions (≤ 0 means
// DefaultMaxSteps); exceeding it yields ActBlocked, which makes
// verification of looping programs bounded but sound for the explored
// prefix.
func Next(p *prog.Program, g *eg.Graph, t int, maxSteps int) Action {
	s := scratchPool.Get().(*scratch)
	defer s.release()
	a, _, ok := s.replay(p, g, t, maxSteps, false, nil)
	if !ok {
		panic("interp: unreachable: strict replay reported divergence")
	}
	return a
}

// Scan replays the threads of g in order and stops at the first one whose
// next action adds an event or fails an assertion, returning that thread,
// its action, and whether a thread before it is blocked. When no thread has
// such an action it returns t = -1. If then no thread is blocked either, g
// is a complete execution, and a non-nil fs receives its final state (what
// FinalState computes) read off this same replay: each done thread's
// register file is swapped out of the scratch, not copied, until the scan
// knows whether every thread is done.
func Scan(p *prog.Program, g *eg.Graph, maxSteps int, fs *prog.FinalState) (t int, a Action, blocked bool) {
	s := scratchPool.Get().(*scratch)
	defer s.release()
	n := len(p.Threads)
	if fs != nil && len(s.final) < n {
		s.final = make([][]int64, n)
	}
	for t = 0; t < n; t++ {
		act, _, ok := s.replay(p, g, t, maxSteps, false, nil)
		if !ok {
			panic("interp: unreachable: strict replay reported divergence")
		}
		switch act.Kind {
		case ActDone:
			if fs != nil {
				s.regs, s.final[t] = s.final[t], s.regs
			}
		case ActBlocked:
			blocked = true
		default:
			return t, act, blocked
		}
	}
	if fs != nil && !blocked {
		*fs = prog.FinalState{Mem: make([]int64, p.NumLocs), Regs: make([][]int64, n)}
		for l := range fs.Mem {
			fs.Mem[l] = g.ValueOf(g.CoMax(eg.Loc(l)))
		}
		for t := range fs.Regs {
			fs.Regs[t] = slices.Clone(s.final[t])
		}
	}
	return -1, Action{}, blocked
}

// Repair re-replays thread t, patching stale written values and CAS kinds
// left behind by a revisit. It returns whether anything was patched and
// whether the thread replays to a structurally identical event sequence.
func Repair(p *prog.Program, g *eg.Graph, t int, maxSteps int) (changed, ok bool) {
	s := scratchPool.Get().(*scratch)
	defer s.release()
	_, changed, ok = s.replay(p, g, t, maxSteps, true, nil)
	return changed, ok
}

// scratch is the pooled working memory of replay: the register file, the
// per-register taint sets and the arena those sets live in, plus
// RepairAll's dirty-thread set and the register files Scan sets aside. A
// taint set is written once and then only read, so registers share sets
// freely; the arena is reset per replay, which is why nothing that escapes
// into an Action may alias it.
type scratch struct {
	regs   []int64
	taints [][]eg.EvID
	ids    []eg.EvID
	dirty  []bool
	final  [][]int64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledIDs bounds the arena a scratch keeps in the pool: a looping
// thread's control set grows with every iteration, and one long replay
// must not pin its arena for good.
const maxPooledIDs = 1 << 12

// release returns s to the pool.
func (s *scratch) release() {
	if cap(s.ids) > maxPooledIDs {
		s.ids = nil
		clear(s.taints[:cap(s.taints)])
	}
	scratchPool.Put(s)
}

// reset readies the scratch for a replay of a thread with n registers.
func (s *scratch) reset(n int) {
	if cap(s.regs) < n {
		s.regs = make([]int64, n)
	}
	if cap(s.taints) < n {
		s.taints = make([][]eg.EvID, n)
	}
	s.regs = s.regs[:n]
	s.taints = s.taints[:n]
	clear(s.regs)
	clear(s.taints)
	s.ids = s.ids[:0]
}

// single returns the one-element taint set {id}, allocated in the arena.
func (s *scratch) single(id eg.EvID) []eg.EvID {
	n := len(s.ids)
	s.ids = append(s.ids, id)
	return s.ids[n : n+1 : n+1]
}

// union returns the union of the taint sets a and b, allocated in the
// arena unless it equals one of them (a branch re-testing the registers
// already in the control set adds nothing).
func (s *scratch) union(a, b []eg.EvID) []eg.EvID {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	n := len(s.ids)
	s.ids = unionIDs(s.ids, a, b)
	switch len(s.ids) - n {
	case len(a):
		s.ids = s.ids[:n]
		return a
	case len(b):
		s.ids = s.ids[:n]
		return b
	}
	return s.ids[n:len(s.ids):len(s.ids)]
}

// replay is the single interpreter loop behind Next and Repair. When dirty
// is non-nil, every patch marks in it the threads of the patched write's
// readers that this replay does not reach afterwards (RepairAll's next
// replays).
func (s *scratch) replay(p *prog.Program, g *eg.Graph, t int, maxSteps int, repair bool, dirty []bool) (act Action, changed, ok bool) {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	code := p.Threads[t]
	s.reset(p.NumRegs[t])
	regs, taints := s.regs, s.taints
	var ctrl []eg.EvID
	consumed := 0
	steps := 0
	pc := 0

	// diverge reports a replay/graph mismatch: fatal in strict mode,
	// a repair failure otherwise.
	diverge := func(format string, args ...any) (Action, bool, bool) {
		if !repair {
			panic(fmt.Sprintf("interp: replay mismatch in thread %d: %s (explorer invariant broken)",
				t, fmt.Sprintf(format, args...)))
		}
		return Action{}, changed, false
	}
	// stop returns the action the thread stops at. Its dependency sets
	// are the pooled scratch's, so Next gets copies; Repair discards the
	// action and copies nothing.
	stop := func(a Action) (Action, bool, bool) {
		if !repair {
			a.Addr, a.Data, a.Ctrl = cloneIDs(a.Addr), cloneIDs(a.Data), cloneIDs(a.Ctrl)
		}
		return a, changed, true
	}
	// leftover reports whether graph events remain unconsumed at a point
	// where the thread stops executing — fine in strict mode only if the
	// stop is an action the explorer sees; never fine during repair.
	leftover := func() bool { return consumed < g.ThreadLen(t) }

	evalT := func(e *prog.Expr) (int64, []eg.EvID) {
		var taint []eg.EvID
		v := e.Eval(regs, func(r prog.Reg) {
			taint = s.union(taint, taints[r])
		})
		return v, taint
	}

	// patched records a rewrite of write id: the threads of its readers
	// replay again. A po-later read in this thread is not one of them:
	// this replay reaches it and takes the new value. A read that is not
	// po-later (an rf edge to a po-later write) has taken the old one.
	patched := func(id eg.EvID) {
		changed = true
		if dirty != nil {
			g.ForEachReader(id, func(r eg.EvID) {
				if r.T != t || r.I <= id.I {
					dirty[r.T] = true
				}
			})
		}
	}

	// nextEvent returns the next graph event in place (see eg.Graph.At):
	// the repair branches below read what they need from it before they
	// patch the graph.
	nextEvent := func() (*eg.Event, bool) {
		if consumed < g.ThreadLen(t) {
			return g.At(eg.EvID{T: t, I: consumed}), true
		}
		return nil, false
	}

	for {
		if steps >= maxSteps {
			if repair && leftover() {
				return diverge("step bound hit with %d events left", g.ThreadLen(t)-consumed)
			}
			return stop(Action{Kind: ActBlocked, Msg: "step bound exceeded"})
		}
		steps++
		if pc >= len(code) {
			if leftover() {
				return diverge("thread finished with %d events left", g.ThreadLen(t)-consumed)
			}
			return stop(Action{Kind: ActDone})
		}
		cur := pc // instruction index, for Action.PC
		in := code[pc]
		pc++
		switch in.Op {
		case prog.IMov:
			v, taint := evalT(in.Val)
			regs[in.Dst] = v
			taints[in.Dst] = taint

		case prog.ILoad:
			av, at := evalT(in.Addr)
			loc, err := locOf(p, av)
			if err != nil {
				if repair && leftover() {
					return diverge("%v", err)
				}
				return stop(Action{Kind: ActError, Msg: err.Error()})
			}
			if ev, present := nextEvent(); present {
				if ev.Kind != eg.KRead || ev.Loc != loc || ev.Mode != in.Mode {
					return diverge("program load of x%d vs graph %v", loc, ev)
				}
				if repair && !sameDeps(ev, at, nil, ctrl) {
					return diverge("dependency sets changed at %v", ev.ID)
				}
				v, haveRF := g.ReadValue(ev.ID)
				if !haveRF {
					return diverge("read %v has no rf", ev.ID)
				}
				regs[in.Dst] = v
				taints[in.Dst] = s.single(ev.ID)
				consumed++
				continue
			}
			return stop(Action{Kind: ActLoad, Loc: loc, Mode: in.Mode, Addr: at, Ctrl: ctrl, PC: cur})

		case prog.IStore:
			av, at := evalT(in.Addr)
			vv, vt := evalT(in.Val)
			loc, err := locOf(p, av)
			if err != nil {
				if repair && leftover() {
					return diverge("%v", err)
				}
				return stop(Action{Kind: ActError, Msg: err.Error()})
			}
			if ev, present := nextEvent(); present {
				if ev.Kind != eg.KWrite || ev.Loc != loc {
					return diverge("program store to x%d vs graph %v", loc, ev)
				}
				if repair && !sameDeps(ev, at, vt, ctrl) {
					return diverge("dependency sets changed at %v", ev.ID)
				}
				if ev.Val != vv {
					if !repair {
						return diverge("graph W x%d=%d, program writes %d", ev.Loc, ev.Val, vv)
					}
					id := ev.ID
					g.SetEventVal(id, vv) // ev is stale from here on
					patched(id)
				}
				consumed++
				continue
			}
			return stop(Action{Kind: ActStore, Loc: loc, Val: vv, Mode: in.Mode, Addr: at, Data: vt, Ctrl: ctrl, PC: cur})

		case prog.ICAS, prog.IFAdd, prog.IXchg:
			av, at := evalT(in.Addr)
			loc, err := locOf(p, av)
			if err != nil {
				if repair && leftover() {
					return diverge("%v", err)
				}
				return stop(Action{Kind: ActError, Msg: err.Error()})
			}
			var a Action
			switch in.Op {
			case prog.ICAS:
				ov, ot := evalT(in.Old)
				nv, nt := evalT(in.New)
				a = Action{Kind: ActCAS, Loc: loc, Old: ov, New: nv, Mode: in.Mode, Data: s.union(ot, nt)}
			case prog.IFAdd:
				dv, dt := evalT(in.Val)
				a = Action{Kind: ActFAdd, Loc: loc, Val: dv, Mode: in.Mode, Data: dt}
			case prog.IXchg:
				vv, vt := evalT(in.Val)
				a = Action{Kind: ActXchg, Loc: loc, Val: vv, Mode: in.Mode, Data: vt}
			}
			if ev, present := nextEvent(); present {
				if (ev.Kind != eg.KUpdate && ev.Kind != eg.KRead) || ev.Loc != loc {
					return diverge("program rmw on x%d vs graph %v", loc, ev)
				}
				if in.Op != prog.ICAS && ev.Kind != eg.KUpdate {
					return diverge("unconditional rmw %v became a read", ev.ID)
				}
				if repair && !sameDeps(ev, at, a.Data, ctrl) {
					return diverge("dependency sets changed at %v", ev.ID)
				}
				// The repairs below patch the graph, which makes ev stale:
				// everything they need is read from it first.
				id, kind, val := ev.ID, ev.Kind, ev.Val
				readVal, haveRF := g.ReadValue(id)
				if !haveRF {
					return diverge("rmw %v has no rf", id)
				}
				// Reconcile the event's kind and written value with the
				// (possibly rebound) value read.
				wantKind, wantVal := rmwOutcome(a, readVal)
				if kind != wantKind {
					if !repair {
						return diverge("CAS %v kind %v, want %v for read value %d", id, kind, wantKind, readVal)
					}
					src, _ := g.RF(id)
					patched(id)
					if wantKind == eg.KUpdate {
						g.SetEventKind(id, eg.KUpdate)
						g.SetEventVal(id, wantVal)
						g.CoInsert(loc, g.CoIndex(loc, src)+1, id)
					} else {
						// Demote to a plain read. Readers of the vanishing
						// write inherit its rf source: they were coherence-
						// adjacent through it, and dropping the update from
						// co splices them onto that source. Their values are
						// repaired on subsequent passes: patched has marked
						// their threads.
						g.ForEachReader(id, func(rd eg.EvID) { g.SetRF(rd, src) })
						g.CoRemove(loc, id)
						g.SetEventKind(id, eg.KRead)
					}
				} else if wantKind == eg.KUpdate && val != wantVal {
					if !repair {
						return diverge("graph U x%d=%d, program writes %d", loc, val, wantVal)
					}
					g.SetEventVal(id, wantVal)
					patched(id)
				}
				regs[in.Dst] = readVal
				taints[in.Dst] = s.single(id)
				if in.Op == prog.ICAS && in.Succ >= 0 {
					regs[in.Succ] = b2i(wantKind == eg.KUpdate)
					taints[in.Succ] = taints[in.Dst]
				}
				consumed++
				continue
			}
			a.Addr = at
			a.Ctrl = ctrl
			a.PC = cur
			return stop(a)

		case prog.IFence:
			if ev, present := nextEvent(); present {
				if ev.Kind != eg.KFence || ev.Fence != in.Fence {
					return diverge("program fence.%v vs graph %v", in.Fence, ev)
				}
				consumed++
				continue
			}
			return stop(Action{Kind: ActFence, Fence: in.Fence, Ctrl: ctrl, PC: cur})

		case prog.IBranch:
			v, taint := evalT(in.Cond)
			ctrl = s.union(ctrl, taint)
			if v != 0 {
				pc = in.Target
			}

		case prog.IJmp:
			pc = in.Target

		case prog.IAssume:
			v, taint := evalT(in.Cond)
			ctrl = s.union(ctrl, taint)
			if v == 0 {
				if repair && leftover() {
					return diverge("assume failed with %d events left", g.ThreadLen(t)-consumed)
				}
				return stop(Action{Kind: ActBlocked, Msg: "assume failed"})
			}

		case prog.IAssert:
			v, _ := evalT(in.Cond)
			if v == 0 {
				msg := in.Msg
				if msg == "" {
					msg = "assertion failed"
				}
				if repair && leftover() {
					return diverge("assertion failed with %d events left", g.ThreadLen(t)-consumed)
				}
				return stop(Action{Kind: ActError, Msg: msg})
			}

		default:
			panic(fmt.Sprintf("interp: bad instruction op %d", in.Op))
		}
	}
}

// rmwOutcome computes the event kind and written value an RMW action
// produces for a given read value.
func rmwOutcome(a Action, readVal int64) (eg.Kind, int64) {
	switch a.Kind {
	case ActCAS:
		if readVal == a.Old {
			return eg.KUpdate, a.New
		}
		return eg.KRead, 0
	case ActFAdd:
		return eg.KUpdate, readVal + a.Val
	case ActXchg:
		return eg.KUpdate, a.Val
	}
	panic("interp: rmwOutcome on non-rmw action")
}

// RepairAll repairs g after the read seed was rebound, replaying threads
// until values stabilise. It returns false if a thread diverges
// structurally or the propagation fails to converge within NumEvents()+2
// passes (a genuine value cycle — out-of-thin-air — which constructive
// exploration rejects).
//
// Precondition: every thread but seed's replays unchanged, as it does in a
// graph that was repaired before seed was rebound (and then restricted to
// an rf-closed cut). The first pass replays seed's thread only; a patch
// marks the threads of the patched write's readers dirty, and each pass
// replays the dirty threads in ascending order — a thread marked after it
// has had its turn waits for the next pass. That is the order a sweep over
// every thread would replay them in, and the threads it skips are those
// whose replay changes nothing, so the patches and the verdict are the
// sweep's, pass limit included.
func RepairAll(p *prog.Program, g *eg.Graph, seed eg.EvID, maxSteps int) bool {
	s := scratchPool.Get().(*scratch)
	defer s.release()
	n := len(p.Threads)
	if cap(s.dirty) < n {
		s.dirty = make([]bool, n)
	}
	dirty := s.dirty[:n]
	clear(dirty)
	dirty[seed.T] = true
	limit := g.NumEvents() + 2
	for pass := 0; pass < limit; pass++ {
		anyChange := false
		for t := range dirty {
			if !dirty[t] {
				continue
			}
			dirty[t] = false
			_, changed, ok := s.replay(p, g, t, maxSteps, true, dirty)
			if !ok {
				return false
			}
			anyChange = anyChange || changed
		}
		if !slices.Contains(dirty, true) {
			// Every thread is clean. The sweep stops here, or, when this
			// pass patched, after one more pass that changes nothing —
			// which must still fit within the limit.
			return !anyChange || pass+1 < limit
		}
	}
	return false
}

func locOf(p *prog.Program, v int64) (eg.Loc, error) {
	if v < 0 || v >= int64(p.NumLocs) {
		return 0, fmt.Errorf("address %d out of range [0,%d)", v, p.NumLocs)
	}
	return eg.Loc(v), nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sameDeps compares an event's recorded dependency sets against freshly
// computed taints.
func sameDeps(ev *eg.Event, addr, data, ctrl []eg.EvID) bool {
	return equalIDs(ev.Addr, addr) && equalIDs(ev.Data, data) && equalIDs(ev.Ctrl, ctrl)
}

func equalIDs(a, b []eg.EvID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cloneIDs returns a copy of ids (actions must not alias the replay's
// pooled taint arena).
func cloneIDs(ids []eg.EvID) []eg.EvID {
	if len(ids) == 0 {
		return nil
	}
	return append([]eg.EvID(nil), ids...)
}

// unionIDs appends to dst the union of the sets a and b, each sorted by
// (thread, index) without duplicates, by a linear merge.
func unionIDs(dst, a, b []eg.EvID) []eg.EvID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch x, y := a[i], b[j]; {
		case x == y:
			dst = append(dst, x)
			i++
			j++
		case x.T < y.T || x.T == y.T && x.I < y.I:
			dst = append(dst, x)
			i++
		default:
			dst = append(dst, y)
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// FinalState assembles the observable final state of a complete execution:
// coherence-maximal values per location plus each thread's final registers.
// It must only be called when every thread's Next is ActDone.
func FinalState(p *prog.Program, g *eg.Graph, maxSteps int) prog.FinalState {
	fs := prog.FinalState{
		Mem:  make([]int64, p.NumLocs),
		Regs: make([][]int64, len(p.Threads)),
	}
	for l := 0; l < p.NumLocs; l++ {
		fs.Mem[l] = g.ValueOf(g.CoMax(eg.Loc(l)))
	}
	s := scratchPool.Get().(*scratch)
	defer s.release()
	for t := range p.Threads {
		if a, _, _ := s.replay(p, g, t, maxSteps, false, nil); a.Kind != ActDone {
			panic(fmt.Sprintf("interp: FinalState on incomplete execution (thread %d is %v)", t, a.Kind))
		}
		fs.Regs[t] = slices.Clone(s.regs)
	}
	return fs
}
