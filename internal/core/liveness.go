package core

import (
	"fmt"

	"hmc/internal/eg"
	"hmc/internal/interp"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// PermanentBlock identifies one liveness violation: a thread whose await
// can never complete, with the spin-read and the witness execution.
type PermanentBlock struct {
	Thread int
	// Read is the spin-read the thread is stuck on (zero EvID when the
	// failed assume does not depend on memory at all).
	Read    eg.EvID
	Witness *eg.Graph
}

func (b PermanentBlock) String() string {
	return fmt.Sprintf("thread %d blocks forever at %v", b.Thread, b.Read)
}

// LivenessReport is the outcome of CheckLiveness.
type LivenessReport struct {
	// Executions counts complete consistent executions.
	Executions int
	// BlockedExecutions counts maximal blocked executions of any kind.
	BlockedExecutions int
	// PermanentBlocks holds one entry per (thread, spin-read instruction)
	// that blocks forever in some execution where no thread can ever move
	// again: every thread is done or stuck on final memory. Genuine
	// deadlocks — no scheduler, fair or not, revives them.
	PermanentBlocks []PermanentBlock
	// FairnessBlocks counts blocked executions that are *not* liveness
	// violations: every stuck spin-read observes a stale (non-co-max)
	// write, so the block only persists if the scheduler never lets the
	// reader see the newer value. Standard stateless model checking
	// ignores these, and so does the Live verdict.
	FairnessBlocks int
	// BoundBlocks counts executions cut off by the step bound rather than
	// a failed assume; they carry no liveness information.
	BoundBlocks int
	// Truncated/Interrupted report a partial exploration: Live()=true is
	// then only "no deadlock found so far", not a verdict.
	Truncated   bool
	Interrupted bool
}

// Live reports whether the program has no permanent blocks.
func (r *LivenessReport) Live() bool { return len(r.PermanentBlocks) == 0 }

// CheckLiveness explores p under the model and classifies every maximal
// blocked execution, in the spirit of GenMC's spin-loop liveness checking.
// A blocked thread sits at a failed assume, po-after the read(s) feeding
// its guard (the Await building block emits load-then-assume). An
// execution is a liveness violation — a deadlock — when *no* thread can
// ever move again: every thread is either done or assume-blocked having
// observed only coherence-maximal writes (the final values memory will
// ever hold), with its guard still false. Then no extension and no
// schedule, fair or not, revives anyone.
//
// Blocked executions where some stuck thread's *spin reads* — the
// contiguous read suffix before its assume, i.e. the loads its loop
// re-executes each iteration — saw a stale value are classified as
// fairness blocks, not violations: a fair scheduler lets that thread
// re-read the newer value, and once revived it may write and revive the
// others (this is exactly the blocked-Peterson shape — one spinner stale,
// one on final memory — which is *not* a deadlock). Reads po-before the
// spin suffix are completed history (an ABBA thread's own lock acquire):
// their staleness cannot revive anything and does not mask the deadlock.
// Executions cut off by the step bound carry no liveness information and
// are counted separately.
//
// The criterion is a sound under-approximation: every PermanentBlock is a
// genuine violation, while some genuine violations hidden behind stale
// reads elsewhere in the execution may be classified as fairness-only.
//
// An optional Options value supplies exploration bounds (MaxExecutions,
// Context, Workers, Symmetry, MaxSteps); its Model and callback fields
// are ignored. A bounded or cancelled run sets Truncated/Interrupted on
// the report.
func CheckLiveness(p *prog.Program, model memmodel.Model, opts ...Options) (*LivenessReport, error) {
	rep := &LivenessReport{}
	type blockSite struct {
		thread int
		index  int // spin-read's po index (-1: memory-independent assume)
	}
	reported := map[blockSite]bool{}
	res, err := Explore(p, analysisOptions(model, nil,
		func(g *eg.Graph) {
			rep.BlockedExecutions++
			// Pass 1: collect the blocked threads and decide whether any
			// thread could ever move again. A thread blocked on the step
			// bound might simply continue; a thread whose guard saw a
			// stale value can be revived by a fair scheduler — and once
			// revived it may write, reviving others in turn. Only when
			// every non-done thread is assume-blocked on final memory is
			// the state a true dead end.
			var stuck []int
			bound, fairness := false, false
			for t := range p.Threads {
				a := interp.Next(p, g, t, 0)
				if a.Kind != interp.ActBlocked {
					continue
				}
				if a.Msg != "assume failed" {
					bound = true
					continue
				}
				if staleSpinRead(g, t) {
					fairness = true
					continue
				}
				stuck = append(stuck, t)
			}
			switch {
			case bound:
				rep.BoundBlocks++
			case fairness:
				rep.FairnessBlocks++
			default:
				// Pass 2: nobody can move — every stuck thread has
				// observed, in full, the last values memory will ever
				// hold and its guard still failed. Deadlock.
				for _, t := range stuck {
					read, hasRead := spinRead(g, t)
					site := blockSite{thread: t, index: -1}
					if hasRead {
						site.index = read.I
					}
					if !reported[site] {
						reported[site] = true
						rep.PermanentBlocks = append(rep.PermanentBlocks,
							PermanentBlock{Thread: t, Read: read, Witness: g.Clone()})
					}
				}
			}
		}, opts))
	if err != nil {
		return nil, fmt.Errorf("liveness check: %w", err)
	}
	rep.Executions = res.Executions
	rep.Truncated = res.Truncated
	rep.Interrupted = res.Interrupted
	return rep, nil
}

// staleSpinRead reports whether any of thread t's spin reads — the
// contiguous suffix of read events before its failed assume, i.e. the
// loads the spin loop re-executes every iteration — observes a write that
// is not the coherence-maximum of its location. Reads before the suffix
// are completed history the loop never re-reads; their staleness cannot
// revive the thread.
func staleSpinRead(g *eg.Graph, t int) bool {
	for i := g.ThreadLen(t) - 1; i >= 0; i-- {
		id := eg.EvID{T: t, I: i}
		ev := g.At(id)
		if ev.Kind == eg.KFence {
			continue // an acquire fence inside the loop doesn't end the suffix
		}
		if !ev.Kind.IsRead() {
			return false
		}
		if src, ok := g.RF(id); ok && src != g.CoMax(ev.Loc) {
			return true
		}
	}
	return false
}

// spinRead returns thread t's last event when it is a read feeding the
// failed assume (the Await encoding places the spin-read po-last).
func spinRead(g *eg.Graph, t int) (eg.EvID, bool) {
	n := g.ThreadLen(t)
	if n == 0 {
		return eg.EvID{}, false
	}
	id := eg.EvID{T: t, I: n - 1}
	if !g.At(id).Kind.IsRead() {
		return eg.EvID{}, false
	}
	return id, true
}
