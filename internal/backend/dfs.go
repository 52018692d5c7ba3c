// The DFS adapter wraps the production GenMC-style explorer
// (internal/core). It is the portfolio's anchor: applicable to every
// model and every bound, and never skipped. Explore installs its own
// panic→EngineError boundary, so no extra containment is needed here.

package backend

import (
	"context"
	"time"

	"hmc/internal/core"
	"hmc/internal/eg"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// DFS adapts core.Explore to the Backend interface.
type DFS struct {
	// Tune, when non-nil, adjusts the assembled core.Options before the
	// run — the service uses it to attach progress sinks and checkpoint
	// cadence to the anchor without widening Spec.
	Tune func(*core.Options)
	// OnResult, when non-nil, observes the raw core.Result alongside the
	// normalized verdict — the service keeps serving the explorer's full
	// counters (resultJSON, addStats, the verdict cache) unchanged while
	// the portfolio attests the normalized view.
	OnResult func(*core.Result)
}

func (d *DFS) Name() string { return "dfs" }

// Applicable accepts any registered model: DFS is the anchor.
func (d *DFS) Applicable(p *prog.Program, spec Spec) error {
	_, err := memmodel.ByName(spec.Model)
	return err
}

func (d *DFS) Run(ctx context.Context, p *prog.Program, spec Spec) (*Verdict, error) {
	opts, err := spec.Options()
	if err != nil {
		return nil, err
	}
	start := time.Now() //hmc:nondet(verdict latency is observability, never compared or counted)
	finals := map[string]prog.FinalState{}
	opts.Context = ctx
	opts.OnExecution = func(g *eg.Graph, fs prog.FinalState) {
		finals[FinalKey(fs)] = fs
	}
	if d.Tune != nil {
		d.Tune(&opts)
	}
	res, err := core.Explore(p, opts)
	if err != nil {
		return nil, err
	}
	if d.OnResult != nil {
		d.OnResult(res)
	}
	v := &Verdict{
		Backend:         d.Name(),
		Model:           spec.Model,
		Outcomes:        outcomes(finals),
		Allowed:         res.Stats.ExistsCount > 0,
		Exhaustive:      res.Exhaustive(),
		TruncatedReason: res.TruncatedReason,
		Interrupted:     res.Interrupted,
		Executions:      res.Stats.Executions,
		Blocked:         res.Stats.Blocked,
		States:          int64(res.Stats.States),
		Elapsed:         time.Since(start),
	}
	v.OutcomeDigest = Digest(v.Outcomes)
	for _, e := range res.Stats.Errors {
		v.AssertionErrors = append(v.AssertionErrors, e.Msg)
	}
	switch {
	case len(res.Stats.Errors) > 0:
		v.Assertion = Fail // a found failure is a failure even in a partial run
	case v.Exhaustive:
		v.Assertion = Pass
	default:
		v.Assertion = Unknown
	}
	return v, nil
}
