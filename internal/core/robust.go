package core

import (
	"fmt"

	"hmc/internal/eg"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// RobustnessReport is the outcome of CheckRobustness.
type RobustnessReport struct {
	// Robust is true when every execution the weak model admits is also
	// sequentially consistent — the program exhibits no weak behaviour at
	// all, so SC reasoning about it is sound on that hardware.
	Robust bool
	// Executions counts the weak model's consistent executions.
	Executions int
	// NonSC counts those that are not sequentially consistent.
	NonSC int
	// Witness is one non-SC execution (nil when robust).
	Witness *eg.Graph
	// Truncated/Interrupted report a partial exploration (MaxExecutions
	// hit, or Options.Context cancelled): Robust=true is then only
	// "no counterexample found so far", not a verdict.
	Truncated   bool
	Interrupted bool
}

// analysisOptions merges the optional exploration options an analysis
// entry point accepts (bounds, context, workers, symmetry) with the
// callbacks and model the analysis itself owns. At most one Options value
// is honoured; the caller's Model and callbacks are ignored.
func analysisOptions(m memmodel.Model, onExec func(*eg.Graph, prog.FinalState), onBlocked func(*eg.Graph), opts []Options) Options {
	o := Options{}
	if len(opts) > 0 {
		o = opts[0]
	}
	o.Model = m
	o.OnExecution = onExec
	o.OnBlocked = onBlocked
	o.CollectKeys = false
	return o
}

// CheckRobustness reports whether p is robust against the given weak
// model: whether its executions under that model coincide with its SC
// executions. Robustness is the practical verification target for
// portable code — a robust program needs no weak-memory reasoning — and
// the witness, when present, is precisely the reordering an engineer must
// either accept or fence away.
//
// An optional Options value supplies exploration bounds (MaxExecutions,
// Context, Workers, Symmetry, MaxSteps); its Model and callback fields
// are ignored. A bounded or cancelled run sets Truncated/Interrupted on
// the report.
func CheckRobustness(p *prog.Program, weak memmodel.Model, opts ...Options) (*RobustnessReport, error) {
	sc, err := memmodel.ByName("sc")
	if err != nil {
		return nil, err
	}
	rep := &RobustnessReport{Robust: true}
	res, err := Explore(p, analysisOptions(weak, func(g *eg.Graph, fs prog.FinalState) {
		if !sc.Consistent(eg.NewView(g)) {
			rep.NonSC++
			rep.Robust = false
			if rep.Witness == nil {
				rep.Witness = g.Clone()
			}
		}
	}, nil, opts))
	if err != nil {
		return nil, fmt.Errorf("robustness check: %w", err)
	}
	rep.Executions = res.Executions
	rep.Truncated = res.Truncated
	rep.Interrupted = res.Interrupted
	return rep, nil
}
