package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"

	"hmc/internal/eg"
	"hmc/internal/prog"
)

// EstimateResult summarizes a probe-based estimate of a program's
// exploration cost (see Estimate).
type EstimateResult struct {
	// Mean is the estimated number of complete executions — the average
	// of the per-probe Knuth estimators.
	Mean float64
	// StdErr is the standard error of Mean over the samples; the spread
	// is large when the exploration tree is lopsided, which is itself
	// useful signal (GenMC reports the same caveat).
	StdErr float64
	// Samples is the number of probes taken.
	Samples int
	// CompletedProbes counts probes that ended in a complete execution
	// (the rest died in blocked or all-inconsistent dead ends and
	// contribute zero weight).
	CompletedProbes int
	// MaxDepth is the deepest probe, in exploration steps.
	MaxDepth int
	// Interrupted reports that Options.Context was cancelled before all
	// probes ran: Mean/StdErr are computed over the probes completed so
	// far (Samples still records the requested count). When cancellation
	// lands before the first probe, the result is zero-valued with only
	// Interrupted set — never NaN from a zero-probe division.
	Interrupted bool
}

func (r *EstimateResult) String() string {
	return fmt.Sprintf("≈%.1f executions (±%.1f, %d/%d probes completed)",
		r.Mean, r.StdErr, r.CompletedProbes, r.Samples)
}

// Estimate predicts the number of complete executions of p without
// exploring them all, by random probing (Knuth's tree-size estimator, the
// technique behind GenMC's --estimate): each probe walks root→leaf
// choosing uniformly among the successor states the real algorithm would
// branch to (the children expand lists), multiplying its weight by the
// branching factor, and a complete leaf contributes that weight. The
// estimator is deterministic for a fixed seed.
//
// The probe tree is the *unmemoized* exploration tree, so the estimator
// is unbiased for the number of root→execution paths. When the memoized
// search never collapses states (Stats.MemoHits = 0) that equals
// Stats.Executions exactly — measured true for store/load workloads (SB,
// MP, CoRR, 2+2W within ±1%). When revisit choreographies do collapse —
// load-buffering shapes and especially RMW chains — the estimate
// over-counts by the path multiplicity, by orders of magnitude on
// counter-style programs. Two practical consequences: the estimate is
// always safe as an upper bound for "too big to check?", and a spread
// (StdErr) comparable to the mean is the signature of a revisit-heavy
// space where a reduction (Symmetry) should be applied before an
// exhaustive run.
//
// Estimate honours opts.Context — cancellation stops probing and returns
// the estimate over the probes taken so far with Interrupted set.
// MaxExecutions does not apply (probes are root→leaf walks, not an
// enumeration); exploration callbacks are never invoked.
func Estimate(p *prog.Program, opts Options, samples int, seed int64) (res *EstimateResult, err error) {
	if opts.Model == nil {
		return nil, fmt.Errorf("core: Options.Model is required")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Probing replays the same engine code paths as exploration, so it
	// gets the same panic→error boundary: a poisoned program fails this
	// call with a structured EngineError, not the process.
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &EngineError{
				Op:          "estimate",
				Program:     p.Name,
				Fingerprint: p.Fingerprint(),
				Model:       opts.Model.Name(),
				PanicValue:  r,
				Stack:       string(debug.Stack()),
			}
		}
	}()
	if samples <= 0 {
		samples = 32
	}
	rng := rand.New(rand.NewSource(seed))
	e := &explorer{p: p, opts: opts, static: analyzeIfNeeded(p, opts)}
	var x expansion
	res = &EstimateResult{Samples: samples}
	var sum, sumSq float64
	taken := 0
	for s := 0; s < samples; s++ {
		if opts.Context != nil && opts.Context.Err() != nil {
			res.Interrupted = true
			break
		}
		taken++
		g := eg.NewGraph(len(p.Threads), p.NumLocs)
		w := 1.0
		depth := 0
		for {
			if opts.Context != nil && opts.Context.Err() != nil {
				res.Interrupted = true
				break
			}
			e.expand(g, &x)
			if x.out == outComplete {
				sum += w
				sumSq += w * w
				res.CompletedProbes++
				break
			}
			if x.out != outInner || len(x.kids) == 0 {
				break // blocked, error, or all successors inconsistent
			}
			w *= float64(len(x.kids))
			g = x.kids[rng.Intn(len(x.kids))]
			depth++
		}
		if depth > res.MaxDepth {
			res.MaxDepth = depth
		}
	}
	if taken == 0 {
		// Interrupted before any probe ran: a zero-valued result with only
		// Interrupted set. Samples must not claim probes that never
		// happened, and nothing downstream (ETAs, JSON encoders) can meet
		// a NaN or Inf.
		return &EstimateResult{Interrupted: true}, nil
	}
	n := float64(taken)
	res.Mean = finiteEstimate(sum / n)
	if taken > 1 {
		variance := (sumSq - sum*sum/n) / (n - 1)
		if variance > 0 {
			res.StdErr = finiteEstimate(math.Sqrt(variance / n))
		}
	}
	return res, nil
}

// finiteEstimate guards the estimator's float arithmetic: probe weights
// are products of branching factors and can overflow float64 on deep
// lopsided trees, after which Inf propagates to NaN through the variance
// (Inf − Inf). Non-finite values clamp to MaxFloat64 — "beyond
// measurement", still an honest upper bound — so every result field stays
// finite for the JSON encoders downstream.
func finiteEstimate(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return math.MaxFloat64
	}
	return x
}
