// The axenum adapter wraps the herd-style axiomatic enumerator. It is
// exact on the models where value guessing is constructively justified,
// but its candidate space is exponential in the visible-event count, so
// applicability is event-count bounded (satellite guard). Two model-level
// caveats shape the guards and the normalization:
//
//   - under "relaxed" the enumerator manufactures out-of-thin-air
//     executions (self-justifying value cycles) that no constructive
//     exploration produces, so the outcome sets legitimately differ —
//     the backend declares relaxed unsupported rather than disagreeing;
//   - its assertion detection records error shapes per guessed value
//     vector, an over-approximation of reachable failures, so a non-empty
//     error list normalizes to Unknown, never Fail.

package backend

import (
	"context"
	"time"

	"hmc/internal/axenum"
	"hmc/internal/core"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// Default axenum budgets: the visible-op bound keeps the rf×co candidate
// space enumerable (crossval caps random programs at 7 visible ops; the
// corpus tops out near a dozen), and the candidate cap is a hard brake
// for programs whose bound estimate is too optimistic.
const (
	DefaultAxenumMaxOps        = 16
	DefaultAxenumMaxCandidates = 2_000_000
)

// Axenum adapts axenum.Explore to the Backend interface.
type Axenum struct {
	// MaxOps overrides the visible-operation applicability bound (0 =
	// DefaultAxenumMaxOps).
	MaxOps int
	// MaxCandidates overrides the enumeration budget (0 = default).
	MaxCandidates int
}

func (a *Axenum) Name() string { return "axenum" }

func (a *Axenum) maxOps() int {
	if a.MaxOps > 0 {
		return a.MaxOps
	}
	return DefaultAxenumMaxOps
}

func (a *Axenum) maxCandidates() int {
	if a.MaxCandidates > 0 {
		return a.MaxCandidates
	}
	return DefaultAxenumMaxCandidates
}

func (a *Axenum) Applicable(p *prog.Program, spec Spec) error {
	if _, err := memmodel.ByName(spec.Model); err != nil {
		return err
	}
	if spec.Model == "relaxed" {
		return Unsupported(a.Name(), "relaxed admits out-of-thin-air executions the constructive engines never produce")
	}
	if err := boundsGuard(a.Name(), spec); err != nil {
		return err
	}
	if n := visibleOps(p); n > a.maxOps() {
		return Unsupported(a.Name(), "program has %d visible operations, enumeration bound is %d", n, a.maxOps())
	}
	return nil
}

func (a *Axenum) Run(ctx context.Context, p *prog.Program, spec Spec) (*Verdict, error) {
	model, err := memmodel.ByName(spec.Model)
	if err != nil {
		return nil, err
	}
	start := time.Now() //hmc:nondet(verdict latency is observability, never compared or counted)
	var res *axenum.Result
	err = core.Contain("backend:axenum", p, spec.Model, func() error {
		var ierr error
		res, ierr = axenum.Explore(p, axenum.Options{
			Model:         model,
			MaxCandidates: a.maxCandidates(),
			Context:       ctx,
		})
		return ierr
	})
	if err != nil {
		return nil, err
	}
	v := &Verdict{
		Backend:         a.Name(),
		Model:           spec.Model,
		Outcomes:        outcomes(res.Finals),
		Allowed:         res.ExistsCount > 0,
		AssertionErrors: res.Errors,
		Exhaustive:      !res.Truncated && !res.Interrupted,
		Interrupted:     res.Interrupted,
		Executions:      res.Consistent,
		Blocked:         res.Blocked,
		Candidates:      res.Candidates,
		Elapsed:         time.Since(start),
	}
	if res.Truncated {
		v.TruncatedReason = "max-candidates"
	}
	v.OutcomeDigest = Digest(v.Outcomes)
	switch {
	case len(res.Errors) > 0:
		// Error shapes are recorded per guess vector — possibly for
		// value guesses no write justifies — so "errors seen" only
		// means "cannot attest the assertion", not "fails".
		v.Assertion = Unknown
	case v.Exhaustive:
		v.Assertion = Pass
	default:
		v.Assertion = Unknown
	}
	return v, nil
}

// boundsGuard rejects DFS-shaped resource bounds and symmetry reduction
// for the alternate engines: a bounded run cuts the exploration
// tree in an engine-specific order, so its outcome set is not comparable
// across engines.
func boundsGuard(name string, spec Spec) error {
	switch {
	case spec.MaxExecutions > 0:
		return Unsupported(name, "MaxExecutions is a DFS-order bound")
	case spec.MaxEvents > 0:
		return Unsupported(name, "MaxEvents is a DFS graph bound")
	case spec.MemoryBudget > 0:
		return Unsupported(name, "memory budgets truncate in engine-specific order")
	case spec.Symmetry:
		return Unsupported(name, "symmetry reduction collapses final states to orbit representatives")
	}
	return nil
}

// visibleOps counts the memory-visible instructions (loads, stores,
// RMWs, fences) across all threads — the static size estimate behind the
// enumeration and machine-exploration applicability bounds.
func visibleOps(p *prog.Program) int {
	n := 0
	for _, th := range p.Threads {
		for _, in := range th {
			switch in.Op {
			case prog.ILoad, prog.IStore, prog.ICAS, prog.IFAdd, prog.IXchg, prog.IFence:
				n++
			}
		}
	}
	return n
}

// instrCount is the total static instruction count across threads.
func instrCount(p *prog.Program) int {
	n := 0
	for _, th := range p.Threads {
		n += len(th)
	}
	return n
}
