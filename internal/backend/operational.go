// The operational adapter wraps the store-buffer machines (per Abdulla
// et al., arXiv:1501.02069). Only SC, TSO and PSO have machines, and the
// memoized state space still grows combinatorially, so applicability is
// model- and size-guarded (the "TSO/PSO only, small-program bounded"
// backend of ROADMAP item 3). Memo mode makes it a complete final-state
// oracle — exactly the comparable core of a Verdict. The machine was
// written as a test oracle and panics on internal invariant violations,
// so the run is wrapped in the core.Contain boundary.

package backend

import (
	"context"
	"time"

	"hmc/internal/core"
	"hmc/internal/operational"
	"hmc/internal/prog"
)

// Default operational bounds: visible ops drive the interleaving width,
// total instructions bound loop replay.
const (
	DefaultOperationalMaxOps    = 24
	DefaultOperationalMaxInstrs = 96
)

// Operational adapts operational.Explore (Memo mode) to the Backend
// interface.
type Operational struct {
	// MaxOps and MaxInstrs override the small-program applicability
	// bounds (0 = defaults).
	MaxOps    int
	MaxInstrs int
}

func (o *Operational) Name() string { return "operational" }

func (o *Operational) maxOps() int {
	if o.MaxOps > 0 {
		return o.MaxOps
	}
	return DefaultOperationalMaxOps
}

func (o *Operational) maxInstrs() int {
	if o.MaxInstrs > 0 {
		return o.MaxInstrs
	}
	return DefaultOperationalMaxInstrs
}

// levels maps the model names that have operational machines.
var levels = map[string]operational.Level{
	"sc":  operational.SC,
	"tso": operational.TSO,
	"pso": operational.PSO,
}

func (o *Operational) Applicable(p *prog.Program, spec Spec) error {
	if _, ok := levels[spec.Model]; !ok {
		return Unsupported(o.Name(), "no store-buffer machine for model %q (have sc, tso, pso)", spec.Model)
	}
	if err := boundsGuard(o.Name(), spec); err != nil {
		return err
	}
	if n := visibleOps(p); n > o.maxOps() {
		return Unsupported(o.Name(), "program has %d visible operations, machine bound is %d", n, o.maxOps())
	}
	if n := instrCount(p); n > o.maxInstrs() {
		return Unsupported(o.Name(), "program has %d instructions, machine bound is %d", n, o.maxInstrs())
	}
	return nil
}

func (o *Operational) Run(ctx context.Context, p *prog.Program, spec Spec) (*Verdict, error) {
	level, ok := levels[spec.Model]
	if !ok {
		return nil, Unsupported(o.Name(), "no store-buffer machine for model %q", spec.Model)
	}
	start := time.Now() //hmc:nondet(verdict latency is observability, never compared or counted)
	var res *operational.Result
	err := core.Contain("backend:operational", p, spec.Model, func() error {
		var ierr error
		res, ierr = operational.Explore(p, operational.Options{
			Level:   level,
			Memo:    true,
			Context: ctx,
		})
		return ierr
	})
	if err != nil {
		return nil, err
	}
	v := &Verdict{
		Backend:         o.Name(),
		Model:           spec.Model,
		Outcomes:        outcomes(res.Finals),
		Allowed:         res.ExistsCount > 0,
		AssertionErrors: res.Errors,
		Exhaustive:      !res.Truncated && !res.Interrupted,
		Interrupted:     res.Interrupted,
		Executions:      res.Traces,
		Blocked:         res.Blocked,
		States:          int64(res.States),
		Elapsed:         time.Since(start),
	}
	if res.Truncated {
		v.TruncatedReason = "max-traces"
	}
	v.OutcomeDigest = Digest(v.Outcomes)
	switch {
	case len(res.Errors) > 0:
		v.Assertion = Fail // machine errors are reachable by construction
	case v.Exhaustive:
		v.Assertion = Pass
	default:
		v.Assertion = Unknown
	}
	return v, nil
}
