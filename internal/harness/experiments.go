package harness

import (
	"fmt"
	"runtime"
	"time"

	"hmc/internal/axenum"
	"hmc/internal/core"
	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/obs"
	"hmc/internal/operational"
	"hmc/internal/prog"
)

// Options scales the experiments.
type Options struct {
	// Quick shrinks parameter sweeps for smoke runs (CI, -short tests).
	Quick bool
}

// Experiments lists the experiment ids in order.
func Experiments() []string {
	return []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "T11", "T12", "T13", "T14", "T15"}
}

// Run executes one experiment by id. Any failure — an unknown model, an
// engine error on a particular program — is returned, naming the
// experiment, program and model that died, never panicked through the
// caller (cmd/hmc-bench and cmd/hmc-litmus print it and exit nonzero).
func Run(id string, opts Options) (*Table, error) {
	switch id {
	case "T1":
		return T1LitmusMatrix(opts)
	case "T2":
		return T2AxenumComparison(opts)
	case "T3":
		return T3OperationalComparison(opts)
	case "T4":
		return T4Scaling(opts)
	case "T5":
		return T5Ablation(opts)
	case "T6":
		return T6FenceMatrix(opts)
	case "T7":
		return T7OptimalityStats(opts)
	case "T8":
		return T8Compilation(opts)
	case "T9":
		return T9Robustness(opts)
	case "T10":
		return T10Parallel(opts)
	case "T11":
		return T11Symmetry(opts)
	case "T12":
		return T12Estimate(opts)
	case "T13":
		return T13StaticPruning(opts)
	case "T14":
		return T14CheckpointResume(opts)
	case "T15":
		return T15ProgressOverhead(opts)
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", id, Experiments())
}

// explore runs the HMC explorer and times it; id names the calling
// experiment so a failure reports exactly which table, program and model
// died.
func explore(id string, p *prog.Program, model string) (*core.Result, time.Duration, error) {
	return exploreOpts(id, p, model, core.Options{})
}

// exploreOpts is explore with extra exploration options.
func exploreOpts(id string, p *prog.Program, model string, opts core.Options) (*core.Result, time.Duration, error) {
	m, err := memmodel.ByName(model)
	if err != nil {
		return nil, 0, fmt.Errorf("harness %s: %w", id, err)
	}
	opts.Model = m
	start := time.Now()
	res, err := core.Explore(p, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("harness %s: exploring %q under %s: %w", id, p.Name, model, err)
	}
	return res, time.Since(start), nil
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000) }

func verdict(observed bool) string {
	if observed {
		return "allowed"
	}
	return "forbidden"
}

func mark(observed, expected bool) string {
	v := verdict(observed)
	if observed == expected {
		return v
	}
	return v + " (!)"
}

// T1LitmusMatrix checks every corpus litmus test under every model and
// compares the verdict with the expected one — the reproduction of the
// paper's model-validation table.
func T1LitmusMatrix(opts Options) (*Table, error) {
	models := memmodel.Names()
	t := &Table{
		ID:      "T1",
		Title:   "litmus verdict matrix (observed verdict; (!) marks a mismatch with the expected table)",
		Columns: append([]string{"test"}, models...),
	}
	mismatches := 0
	for _, tc := range litmus.Corpus() {
		row := []any{tc.Name}
		for _, model := range models {
			res, _, err := explore("T1", tc.P, model)
			if err != nil {
				return nil, err
			}
			observed := res.ExistsCount > 0
			expected, known := tc.Allowed[model]
			cell := verdict(observed)
			if known {
				cell = mark(observed, expected)
				if observed != expected {
					mismatches++
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d verdict mismatches against the expected matrix", mismatches))
	return t, nil
}

// T2AxenumComparison compares HMC exploration against the herd-style
// enumeration baseline on the corpus under the hardware model: executions
// explored vs candidate graphs enumerated, and wall-clock time.
func T2AxenumComparison(opts Options) (*Table, error) {
	t := &Table{
		ID:      "T2",
		Title:   "HMC vs herd-style enumeration (model: imm)",
		Columns: []string{"test", "hmc execs", "hmc time", "enum candidates", "enum consistent", "enum time", "candidates/exec"},
	}
	type entry struct {
		name string
		p    *prog.Program
	}
	var tests []entry
	corpus := litmus.Corpus()
	if opts.Quick {
		corpus = corpus[:6]
	}
	for _, tc := range corpus {
		tests = append(tests, entry{tc.Name, tc.P})
	}
	if !opts.Quick {
		// Coherence permutations and RMW chains are where candidate
		// enumeration explodes combinatorially.
		for _, p := range []*prog.Program{
			gen.CoRRN(3), gen.CoRRN(4), gen.IncN(3, 1), gen.IncN(2, 2), gen.CASContendN(3),
		} {
			tests = append(tests, entry{p.Name, p})
		}
	}
	imm, err := memmodel.ByName("imm")
	if err != nil {
		return nil, fmt.Errorf("harness T2: %w", err)
	}
	for _, tc := range tests {
		res, d, err := explore("T2", tc.p, "imm")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ref, err := axenum.Explore(tc.p, axenum.Options{Model: imm})
		if err != nil {
			return nil, fmt.Errorf("harness T2: enumerating %q under imm: %w", tc.name, err)
		}
		refD := time.Since(start)
		ratio := "-"
		if res.Executions > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(ref.Candidates)/float64(res.Executions))
		}
		t.AddRow(tc.name, res.Executions, ms(d), ref.Candidates, ref.Consistent, ms(refD), ratio)
	}
	t.Notes = append(t.Notes,
		"enumeration guesses read values and filters rf×co candidates: its candidate set grows exponentially faster than the consistent set HMC visits directly")
	return t, nil
}

// T3OperationalComparison compares HMC against the operational store-buffer
// explorer (the Nidhugg-style baseline) under TSO: consistent execution
// graphs vs machine traces.
func T3OperationalComparison(opts Options) (*Table, error) {
	t := &Table{
		ID:      "T3",
		Title:   "HMC graphs vs operational traces (model: tso)",
		Columns: []string{"program", "hmc execs", "hmc time", "machine traces", "machine time", "traces/exec"},
	}
	// Per-family caps keep the *trace* enumeration tractable — the very
	// blowup the table demonstrates (graph counts stay tiny).
	caps := []struct {
		build func(int) *prog.Program
		max   int
	}{
		{gen.SBN, 4},
		{gen.MPN, 4},
		{gen.TwoPlusTwoWN, 3},
		{func(n int) *prog.Program { return gen.IncN(n, 1) }, 5},
	}
	var programs []*prog.Program
	for _, c := range caps {
		max := c.max
		if opts.Quick && max > 3 {
			max = 3
		}
		for n := 2; n <= max; n++ {
			programs = append(programs, c.build(n))
		}
	}
	for _, p := range programs {
		res, d, err := explore("T3", p, "tso")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		op, err := operational.Explore(p, operational.Options{Level: operational.TSO})
		if err != nil {
			return nil, fmt.Errorf("harness T3: operational exploration of %q: %w", p.Name, err)
		}
		opD := time.Since(start)
		t.AddRow(p.Name, res.Executions, ms(d), op.Traces, ms(opD),
			fmt.Sprintf("%.1fx", float64(op.Traces)/float64(max1(res.Executions))))
	}
	t.Notes = append(t.Notes,
		"the operational explorer enumerates interleavings and buffer-commit schedules; graphs abstract both, so the gap widens with thread count")
	return t, nil
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// T4Scaling produces the scaling figure's series: time and work vs n for
// the three checkers on SB(n) and LB(n).
func T4Scaling(opts Options) (*Table, error) {
	t := &Table{
		ID:      "T4",
		Title:   "scaling with parameter n (series rows; model per family noted)",
		Columns: []string{"family", "n", "hmc execs", "hmc time", "machine traces", "machine time", "enum candidates", "enum time"},
	}
	max := 5
	machineMax := 4 // trace enumeration explodes beyond this
	if opts.Quick {
		max, machineMax = 3, 3
	}
	tso, err := memmodel.ByName("tso")
	if err != nil {
		return nil, fmt.Errorf("harness T4: %w", err)
	}
	imm, err := memmodel.ByName("imm")
	if err != nil {
		return nil, fmt.Errorf("harness T4: %w", err)
	}
	for n := 2; n <= max; n++ {
		p := gen.SBN(n)
		res, d, err := explore("T4", p, "tso")
		if err != nil {
			return nil, err
		}
		traces, opTime := "-", "-"
		if n <= machineMax {
			opStart := time.Now()
			op, err := operational.Explore(p, operational.Options{Level: operational.TSO})
			if err != nil {
				return nil, fmt.Errorf("harness T4: operational exploration of %q: %w", p.Name, err)
			}
			traces, opTime = fmt.Sprint(op.Traces), ms(time.Since(opStart))
		}
		enumStart := time.Now()
		en, err := axenum.Explore(p, axenum.Options{Model: tso})
		if err != nil {
			return nil, fmt.Errorf("harness T4: enumerating %q under tso: %w", p.Name, err)
		}
		enD := time.Since(enumStart)
		t.AddRow("SB/tso", n, res.Executions, ms(d), traces, opTime, en.Candidates, ms(enD))
	}
	for n := 2; n <= max; n++ {
		p := gen.LBN(n)
		res, d, err := explore("T4", p, "imm")
		if err != nil {
			return nil, err
		}
		enumStart := time.Now()
		en, err := axenum.Explore(p, axenum.Options{Model: imm})
		if err != nil {
			return nil, fmt.Errorf("harness T4: enumerating %q under imm: %w", p.Name, err)
		}
		enD := time.Since(enumStart)
		t.AddRow("LB/imm", n, res.Executions, ms(d), "-", "-", en.Candidates, ms(enD))
	}
	t.Notes = append(t.Notes,
		"LB(n) has no operational baseline: no store-buffer machine exhibits load buffering — the gap HMC exists to fill")
	return t, nil
}

// T5Ablation compares full dependency-aware revisits against the
// porf-prefix-only ablation (GenMC-style) on the load-buffering family
// under the hardware model: the ablation misses every po∪rf-cyclic
// execution.
func T5Ablation(opts Options) (*Table, error) {
	t := &Table{
		ID:      "T5",
		Title:   "dependency-aware revisits vs porf-only ablation (model: imm)",
		Columns: []string{"program", "full execs", "full weak?", "ablation execs", "ablation weak?", "missed"},
	}
	max := 5
	if opts.Quick {
		max = 3
	}
	var programs []*prog.Program
	for n := 2; n <= max; n++ {
		programs = append(programs, gen.LBN(n))
	}
	lbVariants := []string{"LB", "LB+data+po", "LB+datas"}
	for _, name := range lbVariants {
		if tc, ok := litmus.ByName(name); ok {
			programs = append(programs, tc.P)
		}
	}
	for _, p := range programs {
		full, _, err := explore("T5", p, "imm")
		if err != nil {
			return nil, err
		}
		abl, _, err := exploreOpts("T5", p, "imm", core.Options{PorfOnlyRevisits: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(p.Name, full.Executions, full.ExistsCount > 0,
			abl.Executions, abl.ExistsCount > 0, full.Executions-abl.Executions)
	}
	t.Notes = append(t.Notes,
		"porf-only revisits delete every po-successor of the revisited read, so rf edges into the po-past — allowed by hardware models — are unreachable")
	return t, nil
}

// T6FenceMatrix shows how fences and dependencies repair the classic weak
// behaviours across models — the programming-guidance table.
func T6FenceMatrix(opts Options) (*Table, error) {
	models := memmodel.Names()
	t := &Table{
		ID:      "T6",
		Title:   "fence/dependency repair matrix (is the weak outcome observable?)",
		Columns: append([]string{"test"}, models...),
	}
	names := []string{
		"SB", "SB+ffs",
		"MP", "MP+lw+ld", "MP+lw+addr", "MP+lw+ctrl",
		"LB", "LB+datas", "LB+ctrls",
		"2+2W", "2+2W+lws",
		"IRIW", "IRIW+ffs", "IRIW+addrs",
	}
	for _, name := range names {
		tc, ok := litmus.ByName(name)
		if !ok {
			continue
		}
		row := []any{name}
		for _, model := range models {
			res, _, err := explore("T6", tc.P, model)
			if err != nil {
				return nil, err
			}
			row = append(row, map[bool]string{true: "yes", false: "no"}[res.ExistsCount > 0])
		}
		t.AddRow(row...)
	}
	return t, nil
}

// T7OptimalityStats reports the exploration statistics across the corpus
// and generator families: executions, states, memo hits, revisits, blocked
// runs — and, crucially, zero duplicates.
func T7OptimalityStats(opts Options) (*Table, error) {
	t := &Table{
		ID:      "T7",
		Title:   "exploration statistics (model: imm)",
		Columns: []string{"program", "execs", "blocked", "states", "memo hits", "revisits", "repair fails", "duplicates"},
	}
	var programs []*prog.Program
	for _, tc := range litmus.Corpus() {
		programs = append(programs, tc.P)
	}
	max := 4
	if opts.Quick {
		max = 3
	}
	for n := 2; n <= max; n++ {
		programs = append(programs, gen.SBN(n), gen.LBN(n), gen.IncN(n, 1), gen.CASContendN(n))
	}
	programs = append(programs, gen.SpinlockN(2, eg.FenceNone), gen.IndexerN(3))
	totalDup := 0
	for _, p := range programs {
		res, _, err := exploreOpts("T7", p, "imm", core.Options{DedupSafeguard: true})
		if err != nil {
			return nil, err
		}
		totalDup += res.Duplicates
		t.AddRow(p.Name, res.Executions, res.Blocked, res.States, res.MemoHits,
			res.RevisitsTaken, res.RevisitsRepairFail, res.Duplicates)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("total duplicate executions across all programs: %d (optimality)", totalDup))
	return t, nil
}

// T8Compilation contrasts language-level rel/acq annotations (respected
// by rc11 only) with their hardware compilations (fences/dependencies):
// the formal version of "atomics must be compiled to barriers". Each
// annotated test is paired with the fence-based variant that implements
// it on hardware.
func T8Compilation(opts Options) (*Table, error) {
	models := []string{"rc11", "tso", "pso", "arm", "imm"}
	t := &Table{
		ID:      "T8",
		Title:   "rel/acq annotations vs their hardware compilations (weak outcome observable?)",
		Columns: append([]string{"test"}, models...),
	}
	rows := []struct {
		label string
		name  string
	}{
		{"MP+rel+acq (annotation)", "MP+rel+acq"},
		{"MP+lw+ld (compiled)", "MP+lw+ld"},
		{"MP+lw+addr (compiled, dep)", "MP+lw+addr"},
		{"MP plain (no ordering)", "MP"},
		{"SB+scs (seq_cst annotation)", "SB+scs"},
		{"SB+ffs (compiled)", "SB+ffs"},
		{"SB+sc+rlx (one side annotated)", "SB+sc+rlx"},
		{"IRIW+scs (seq_cst annotation)", "IRIW+scs"},
		{"IRIW+ffs (compiled)", "IRIW+ffs"},
		{"MP+rel-rmw+acq (release sequence)", "MP+rel-rmw+acq"},
	}
	for _, row := range rows {
		tc, ok := litmus.ByName(row.name)
		if !ok {
			continue
		}
		cells := []any{row.label}
		for _, model := range models {
			res, _, err := explore("T8", tc.P, model)
			if err != nil {
				return nil, err
			}
			cells = append(cells, map[bool]string{true: "yes", false: "no"}[res.ExistsCount > 0])
		}
		t.AddRow(cells...)
	}
	t.Notes = append(t.Notes,
		"rc11 enforces the annotations; hardware models ignore them — the 'yes' cells in the annotation rows are exactly the reorderings a compiler must prevent with the fence rows' barriers")
	return t, nil
}

// T9Robustness reports, for realistic concurrent idioms, whether every
// execution under each weak model is sequentially consistent — the
// verdict practitioners actually want ("can I reason about this code as
// if it ran under SC?"), with non-SC execution counts where not.
func T9Robustness(opts Options) (*Table, error) {
	models := []string{"tso", "pso", "arm", "imm"}
	t := &Table{
		ID:      "T9",
		Title:   "robustness: is every execution sequentially consistent? (no = count of non-SC executions)",
		Columns: append([]string{"program"}, models...),
	}
	programs := []*prog.Program{}
	for _, name := range []string{"SB", "SB+ffs", "MP", "MP+lw+addr", "inc(2)"} {
		if tc, ok := litmus.ByName(name); ok {
			programs = append(programs, tc.P)
		}
	}
	programs = append(programs,
		gen.Peterson(eg.FenceNone), gen.Peterson(eg.FenceFull),
		gen.SpinlockN(2, eg.FenceNone), gen.SpinlockN(2, eg.FenceFull),
		gen.TreiberPushPop(eg.FenceNone), gen.TreiberPushPop(eg.FenceLW),
		gen.CASContendN(3),
	)
	for _, p := range programs {
		row := []any{p.Name}
		for _, model := range models {
			m, err := memmodel.ByName(model)
			if err != nil {
				return nil, fmt.Errorf("harness T9: %w", err)
			}
			rep, err := core.CheckRobustness(p, m)
			if err != nil {
				return nil, fmt.Errorf("harness T9: robustness of %q under %s: %w", p.Name, model, err)
			}
			if rep.Robust {
				row = append(row, "robust")
			} else {
				row = append(row, fmt.Sprintf("no (%d/%d)", rep.NonSC, rep.Executions))
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"atomic RMW programs are naturally robust; fence-repaired protocols become robust exactly when the weak outcomes vanish")
	return t, nil
}

// T10Parallel measures parallel exploration: the same state space explored
// with 1, 2, 4 and 8 workers. Subtrees fork onto free workers, the state
// memo is shared, and the run asserts the execution count is identical at
// every width — speedup without losing optimality.
func T10Parallel(opts Options) (*Table, error) {
	widths := []int{1, 2, 4, 8}
	t := &Table{
		ID:      "T10",
		Title:   "parallel exploration: wall time by worker count (identical execution sets)",
		Columns: []string{"program", "model", "execs", "t(1)", "t(2)", "t(4)", "t(8)", "speedup(8)"},
	}
	type job struct {
		p     *prog.Program
		model string
	}
	jobs := []job{
		{gen.SBN(6), "tso"},
		{gen.LBN(4), "imm"},
		{gen.IncN(3, 2), "arm"},
		{gen.Peterson(eg.FenceNone), "pso"},
	}
	if opts.Quick {
		widths = []int{1, 4}
		t.Columns = []string{"program", "model", "execs", "t(1)", "t(4)", "speedup(4)"}
		jobs = []job{{gen.SBN(4), "tso"}, {gen.LBN(3), "imm"}}
	}
	for _, j := range jobs {
		row := []any{j.p.Name, j.model}
		var execs int
		var base, last time.Duration
		for i, w := range widths {
			res, d, err := exploreOpts("T10", j.p, j.model, core.Options{Workers: w})
			if err != nil {
				return nil, err
			}
			if i == 0 {
				execs = res.Executions
				base = d
				row = append(row, execs)
			} else if res.Executions != execs {
				return nil, fmt.Errorf("harness T10: %s/%s: %d workers found %d executions, 1 worker found %d",
					j.p.Name, j.model, w, res.Executions, execs)
			}
			last = d
			row = append(row, ms(d))
		}
		row = append(row, fmt.Sprintf("%.2fx", float64(base)/float64(last)))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"each width re-explores from scratch; execution counts are asserted equal across widths",
		"speedup saturates where consistency checks are cheap relative to lock traffic on the shared state memo",
		fmt.Sprintf("host: GOMAXPROCS=%d — speedup requires multicore; on a single-CPU host the table measures synchronization overhead instead (expect ≈1x)", runtime.GOMAXPROCS(0)))
	return t, nil
}

// T11Symmetry measures symmetry reduction on programs with identical
// threads: executions collapse to orbits (up to n! for n interchangeable
// threads) at the cost of extra key computations per state.
func T11Symmetry(opts Options) (*Table, error) {
	t := &Table{
		ID:      "T11",
		Title:   "symmetry reduction: executions vs orbits for identical-thread programs",
		Columns: []string{"program", "model", "execs", "time", "orbits", "time(symm)", "reduction"},
	}
	type job struct {
		p     *prog.Program
		model string
	}
	jobs := []job{
		{gen.IncN(3, 1), "sc"},
		{gen.IncN(4, 1), "sc"},
		{gen.IncN(3, 2), "sc"},
		{gen.IncN(3, 1), "arm"},
		{gen.IncN(2, 3), "tso"},
	}
	if !opts.Quick {
		jobs = append(jobs, job{gen.IncN(5, 1), "sc"}, job{gen.IncN(4, 2), "tso"})
	}
	for _, j := range jobs {
		full, d, err := exploreOpts("T11", j.p, j.model, core.Options{})
		if err != nil {
			return nil, err
		}
		sym, ds, err := exploreOpts("T11", j.p, j.model, core.Options{Symmetry: true})
		if err != nil {
			return nil, err
		}
		if sym.ExistsCount > 0 != (full.ExistsCount > 0) {
			return nil, fmt.Errorf("harness T11: %s/%s: reduction changed the verdict", j.p.Name, j.model)
		}
		t.AddRow(j.p.Name, j.model, full.Executions, ms(d), sym.Executions, ms(ds),
			fmt.Sprintf("%.1fx", float64(full.Executions)/float64(sym.Executions)))
	}
	t.Notes = append(t.Notes,
		"inc(n,1) collapses n! RMW chain orders into a single orbit",
		"verdicts (Exists observable?) are asserted identical with and without reduction")
	return t, nil
}

// T12Estimate calibrates the probe estimator against exhaustive counts in
// its two regimes: tree-shaped spaces (MemoHits = 0 — store/load
// workloads), where the Knuth estimator is unbiased and lands within a
// few percent, and revisit-heavy spaces (RMW chains), where the
// unmemoized probe tree over-counts by path multiplicity and the large
// spread is the reliability signal.
func T12Estimate(opts Options) (*Table, error) {
	t := &Table{
		ID:      "T12",
		Title:   "probe estimator calibration: exact vs estimated execution counts",
		Columns: []string{"program", "model", "exact", "memo hits", "estimate", "stderr", "regime"},
	}
	samples := 3000
	if opts.Quick {
		samples = 400
	}
	type job struct {
		p     *prog.Program
		model string
	}
	jobs := []job{
		{gen.SBN(5), "tso"},
		{gen.MPN(4), "tso"},
		{gen.CoRRN(3), "tso"},
		{gen.TwoPlusTwoWN(3), "tso"},
		{gen.LBN(4), "imm"},
		{gen.IncN(3, 2), "tso"},
	}
	for _, j := range jobs {
		exact, _, err := exploreOpts("T12", j.p, j.model, core.Options{})
		if err != nil {
			return nil, err
		}
		m, err := memmodel.ByName(j.model)
		if err != nil {
			return nil, fmt.Errorf("harness T12: %w", err)
		}
		est, err := core.Estimate(j.p, core.Options{Model: m}, samples, 1)
		if err != nil {
			return nil, fmt.Errorf("harness T12: estimating %q under %s: %w", j.p.Name, j.model, err)
		}
		regime := "tree-shaped: unbiased"
		if exact.MemoHits > 0 {
			regime = "revisit-heavy: upper bound"
		} else if diff := est.Mean - float64(exact.Executions); diff > float64(exact.Executions)/10 || -diff > float64(exact.Executions)/10 {
			return nil, fmt.Errorf("harness T12: %s/%s: tree-shaped estimate %.1f deviates >10%% from exact %d",
				j.p.Name, j.model, est.Mean, exact.Executions)
		}
		t.AddRow(j.p.Name, j.model, exact.Executions, exact.MemoHits,
			fmt.Sprintf("%.1f", est.Mean), fmt.Sprintf("%.1f", est.StdErr), regime)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d probes per program, fixed seed; tree-shaped rows are asserted within 10%% of exact", samples),
		"revisit-heavy rows over-count by the unmemoized path multiplicity — safe as a 'too big to check?' upper bound, and the stderr ≈ mean spread is the tell")
	return t, nil
}

// T13StaticPruning measures the static-analysis pruning hook
// (Options.StaticAnalysis): exploration work with and without the
// footprint-driven skips on provably thread-local, single-writer and
// never-read locations. Pruning is count-preserving — execution and
// Exists counts are asserted identical on every row, and CheckDeps runs
// on the pruned side so every dynamic dependency is verified against the
// static sets. LocalRW(n,k) is the parametric family where pruning pays:
// k rounds of thread-local scratch traffic per thread that the unpruned
// explorer branches over and the pruned one walks straight through.
// sb(n) is the control: fully shared, nothing prunable, zero skips.
func T13StaticPruning(opts Options) (*Table, error) {
	t := &Table{
		ID:      "T13",
		Title:   "static-analysis pruning: exploration work with and without footprint-driven skips (counts asserted equal)",
		Columns: []string{"program", "model", "execs", "checks", "checks(SA)", "revisits", "revisits(SA)", "skips rf/co/scan", "time", "time(SA)"},
	}
	type job struct {
		p     *prog.Program
		model string
	}
	jobs := []job{
		{gen.LocalRW(2, 2), "sc"},
		{gen.LocalRW(2, 3), "tso"},
		{gen.LocalRW(3, 2), "imm"},
		{gen.CoRRN(2), "tso"},
		{gen.CoRRN(3), "imm"},
		{gen.SBN(3), "tso"},
	}
	if !opts.Quick {
		jobs = append(jobs, job{gen.LocalRW(3, 3), "tso"}, job{gen.LocalRW(2, 5), "sc"})
	}
	for _, j := range jobs {
		base, d, err := exploreOpts("T13", j.p, j.model, core.Options{})
		if err != nil {
			return nil, err
		}
		pruned, ds, err := exploreOpts("T13", j.p, j.model,
			core.Options{StaticAnalysis: true, CheckDeps: true})
		if err != nil {
			return nil, err
		}
		if pruned.Executions != base.Executions || pruned.ExistsCount != base.ExistsCount {
			return nil, fmt.Errorf("harness T13: %s/%s: pruning changed the counts: %d/%d executions, %d/%d exists",
				j.p.Name, j.model, pruned.Executions, base.Executions, pruned.ExistsCount, base.ExistsCount)
		}
		if pruned.DepViolations != 0 {
			return nil, fmt.Errorf("harness T13: %s/%s: %d dynamic dependencies outside the static sets",
				j.p.Name, j.model, pruned.DepViolations)
		}
		if pruned.ConsistencyChecks > base.ConsistencyChecks {
			return nil, fmt.Errorf("harness T13: %s/%s: pruning increased consistency checks (%d > %d)",
				j.p.Name, j.model, pruned.ConsistencyChecks, base.ConsistencyChecks)
		}
		t.AddRow(j.p.Name, j.model, base.Executions,
			base.ConsistencyChecks, pruned.ConsistencyChecks,
			base.RevisitsTried, pruned.RevisitsTried,
			fmt.Sprintf("%d/%d/%d", pruned.StaticPrunedRf, pruned.StaticPrunedCo, pruned.StaticPrunedScans),
			ms(d), ms(ds))
	}
	t.Notes = append(t.Notes,
		"execution and Exists counts are asserted identical with and without pruning on every row; CheckDeps verified zero dynamic-dependency escapes",
		"LocalRW(n,k): per-thread scratch is provably thread-local — rf candidates, coherence placements and revisit scans on it are skipped",
		"CoRR(n): one writer thread per location — single-writer coherence placements collapse to co-max",
		"SB(n) control: every location shared and multi-written — all skip counters are zero and the columns match")
	return t, nil
}

// defaultEveryExecs mirrors hmcd's -checkpoint-every default: the
// EveryExecs value whose rows also run the kill-and-resume leg.
const defaultEveryExecs = 2000

// T14CheckpointResume measures what durability costs and what it saves:
// the wall-clock overhead of periodic checkpointing as EveryExecs varies
// (every snapshot is really encoded, not just counted), and the
// executions a resume skips after a deterministic mid-run kill
// (Options.FailAfter). Every checkpointed and resumed run's semantic
// totals are asserted equal to the straight run's, and every checkpointed
// run must take one snapshot per EveryExecs executions. The overhead is
// reported, not asserted.
func T14CheckpointResume(opts Options) (*Table, error) {
	t := &Table{
		ID:      "T14",
		Title:   "checkpoint/resume: snapshot overhead vs. EveryExecs and executions saved by resuming a killed run (totals asserted equal)",
		Columns: []string{"program", "model", "execs", "time", "every", "ckpts", "time(ckpt)", "overhead", "saved", "resume does"},
	}
	type job struct {
		p     *prog.Program
		model string
	}
	jobs := []job{
		{gen.SBN(8), "sc"},
		{gen.IndexerN(3), "sc"},
		{gen.IncN(3, 3), "sc"},
	}
	sweep := []int{500, defaultEveryExecs}
	if !opts.Quick {
		jobs = append(jobs, job{gen.SBN(10), "tso"}, job{gen.IncN(4, 2), "tso"})
		sweep = []int{200, 500, defaultEveryExecs, 10000}
	}

	// ckptRun explores with periodic snapshots enabled; the sink encodes
	// each checkpoint to the wire format (the real per-snapshot cost a
	// durable service pays) and keeps the count.
	ckptRun := func(j job, every int) (*core.Result, time.Duration, int, error) {
		snaps, encErr := 0, error(nil)
		res, d, err := exploreOpts("T14", j.p, j.model, core.Options{
			Checkpoint: &core.CheckpointOptions{
				EveryExecs: every,
				Sink: func(cp *core.Checkpoint) {
					snaps++
					if _, e := cp.Encode(); e != nil && encErr == nil {
						encErr = e
					}
				},
			},
		})
		if err == nil && encErr != nil {
			err = fmt.Errorf("harness T14: %s/%s: encoding a periodic checkpoint: %w", j.p.Name, j.model, encErr)
		}
		return res, d, snaps, err
	}

	for _, j := range jobs {
		straight, t0, err := explore("T14", j.p, j.model)
		if err != nil {
			return nil, err
		}
		for _, every := range sweep {
			res, tc, snaps, err := ckptRun(j, every)
			if err != nil {
				return nil, err
			}
			if res.Executions != straight.Executions || res.ExistsCount != straight.ExistsCount || res.Blocked != straight.Blocked {
				return nil, fmt.Errorf("harness T14: %s/%s: checkpointing changed the counts: %d/%d executions, %d/%d exists",
					j.p.Name, j.model, res.Executions, straight.Executions, res.ExistsCount, straight.ExistsCount)
			}
			if want := straight.Executions / every; snaps != want {
				// Snapshots fall due at every EveryExecs-th execution, so a
				// row's overhead measures exactly this many of them.
				return nil, fmt.Errorf("harness T14: %s/%s: EveryExecs=%d took %d snapshots over %d executions, want %d",
					j.p.Name, j.model, every, snaps, straight.Executions, want)
			}
			saved, resumeDoes := "-", "-"
			if every == defaultEveryExecs {
				// Kill-and-resume leg: FailAfter injects "the process dies
				// here" at a branch point no completed run can reach, the
				// interrupted result's final checkpoint is round-tripped
				// through the wire format, and the resume must land on the
				// straight run's exact totals.
				if failAfter := straight.Executions / 2; failAfter > 0 {
					killed, _, err := exploreOpts("T14", j.p, j.model, core.Options{FailAfter: failAfter})
					if err != nil {
						return nil, err
					}
					if !killed.Interrupted || killed.Checkpoint == nil {
						return nil, fmt.Errorf("harness T14: %s/%s: FailAfter=%d did not interrupt with a checkpoint", j.p.Name, j.model, failAfter)
					}
					wire, err := killed.Checkpoint.Encode()
					if err != nil {
						return nil, fmt.Errorf("harness T14: %s/%s: encoding the kill checkpoint: %w", j.p.Name, j.model, err)
					}
					cp, err := core.DecodeCheckpoint(wire)
					if err != nil {
						return nil, fmt.Errorf("harness T14: %s/%s: decoding the kill checkpoint: %w", j.p.Name, j.model, err)
					}
					resumed, _, err := exploreOpts("T14", j.p, j.model, core.Options{ResumeFrom: cp})
					if err != nil {
						return nil, err
					}
					if resumed.Interrupted || resumed.Executions != straight.Executions || resumed.ExistsCount != straight.ExistsCount || resumed.Blocked != straight.Blocked {
						return nil, fmt.Errorf("harness T14: %s/%s: resumed totals diverge from the straight run: %d/%d executions, %d/%d exists",
							j.p.Name, j.model, resumed.Executions, straight.Executions, resumed.ExistsCount, straight.ExistsCount)
					}
					saved = fmt.Sprint(cp.Stats.Executions)
					resumeDoes = fmt.Sprint(resumed.Executions - cp.Stats.Executions)
				}
			}
			t.AddRow(j.p.Name, j.model, straight.Executions, ms(t0),
				every, snaps, ms(tc),
				fmt.Sprintf("%+.1f%%", 100*(float64(tc)/float64(t0)-1)),
				saved, resumeDoes)
		}
	}
	t.Notes = append(t.Notes,
		"every snapshot is encoded to the wire format in the sink; the snapshot count is asserted (one per EveryExecs executions) and the overhead is reported, not gated: single wall-clock pairs on a shared host are too noisy to assert",
		"execution/exists/blocked totals are asserted identical across straight, checkpointed and killed-then-resumed runs on every row",
		"saved = executions already banked in the kill-point checkpoint (never re-explored); resume does = executions the resume leg itself performs",
		"overhead on sub-millisecond rows is timer noise; indexer explores a single execution and exists as a family control")
	return t, nil
}

// T15ProgressOverhead measures what live observability costs: the
// wall-clock overhead of progress snapshots (plus the sampled phase
// timers they switch on) as the cadence varies. Every observed run's
// semantic totals are asserted equal to the unobserved run's, the final
// snapshot's counters must equal the Result, and the overhead at the
// default cadence must stay under 5% on the rows large enough to time
// reliably.
func T15ProgressOverhead(opts Options) (*Table, error) {
	t := &Table{
		ID:      "T15",
		Title:   "progress-snapshot overhead vs. cadence (totals asserted equal; final snapshot must match the result)",
		Columns: []string{"program", "model", "execs", "time", "every", "snaps", "time(obs)", "overhead"},
	}
	type job struct {
		p     *prog.Program
		model string
	}
	jobs := []job{
		{gen.SBN(8), "sc"},
		{gen.IncN(3, 3), "sc"},
	}
	if !opts.Quick {
		jobs = append(jobs, job{gen.SBN(10), "tso"}, job{gen.IncN(4, 2), "tso"})
	}
	sweep := []time.Duration{time.Millisecond, core.DefaultProgressEvery}

	// progRun explores with progress enabled; the sink counts deliveries
	// and keeps the last snapshot so the final one can be checked against
	// the result.
	progRun := func(j job, every time.Duration) (*core.Result, time.Duration, int, error) {
		snaps := 0
		var last obs.ProgressSnapshot
		res, d, err := exploreOpts("T15", j.p, j.model, core.Options{
			Progress: &core.ProgressOptions{
				Every: every,
				Sink:  func(s obs.ProgressSnapshot) { snaps++; last = s },
			},
		})
		if err != nil {
			return nil, 0, 0, err
		}
		if snaps == 0 || !last.Final {
			return nil, 0, 0, fmt.Errorf("harness T15: %s/%s: final snapshot never delivered (%d snapshots, final=%v)",
				j.p.Name, j.model, snaps, last.Final)
		}
		if last.Executions != res.Executions || last.Blocked != res.Blocked || last.States != res.States {
			return nil, 0, 0, fmt.Errorf("harness T15: %s/%s: final snapshot diverges from the result: %d/%d executions, %d/%d blocked, %d/%d states",
				j.p.Name, j.model, last.Executions, res.Executions, last.Blocked, res.Blocked, last.States, res.States)
		}
		return res, d, snaps, nil
	}

	for _, j := range jobs {
		straight, t0, err := explore("T15", j.p, j.model)
		if err != nil {
			return nil, err
		}
		for _, every := range sweep {
			res, to, snaps, err := progRun(j, every)
			if err != nil {
				return nil, err
			}
			if res.Executions != straight.Executions || res.ExistsCount != straight.ExistsCount || res.Blocked != straight.Blocked {
				return nil, fmt.Errorf("harness T15: %s/%s: observation changed the counts: %d/%d executions, %d/%d exists",
					j.p.Name, j.model, res.Executions, straight.Executions, res.ExistsCount, straight.ExistsCount)
			}
			if every == core.DefaultProgressEvery {
				// The acceptance bar: at the default cadence the observed
				// run must stay within 5% of the unobserved run. Timing
				// rows this small is noise, so the bar applies from 200ms
				// up, and a miss is re-measured in back-to-back pairs
				// (unobserved, observed): a load or GC spike hits both
				// sides of a pair about equally, so the best pair ratio is
				// robust against drifting machine load where independent
				// minima are not. The per-side minima are what the row
				// reports.
				const bar = 1.05
				best0, bestO := t0, to
				ratio := float64(to) / float64(t0)
				for attempt := 0; ratio > bar && best0 >= 200*time.Millisecond && attempt < 4; attempt++ {
					_, d0, err := explore("T15", j.p, j.model)
					if err != nil {
						return nil, err
					}
					_, do, _, err := progRun(j, every)
					if err != nil {
						return nil, err
					}
					if r := float64(do) / float64(d0); r < ratio {
						ratio = r
					}
					if d0 < best0 {
						best0 = d0
					}
					if do < bestO {
						bestO = do
					}
				}
				if best0 >= 200*time.Millisecond && ratio > bar {
					return nil, fmt.Errorf("harness T15: %s/%s: instrumentation overhead at Every=%v is %.1f%% (bar: 5%%): best unobserved %v vs observed %v",
						j.p.Name, j.model, every, 100*(ratio-1), best0, bestO)
				}
				t0, to = best0, bestO
			}
			t.AddRow(j.p.Name, j.model, straight.Executions, ms(t0),
				every, snaps, ms(to),
				fmt.Sprintf("%+.1f%%", 100*(float64(to)/float64(t0)-1)))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("overhead at the default cadence (%v) is asserted under 5%% on rows from 200ms up (a miss re-measures in back-to-back pairs and judges the best pair ratio; the row reports per-side minima)", core.DefaultProgressEvery),
		"execution/exists/blocked totals are asserted identical between observed and unobserved runs on every row; the final snapshot's counters must equal the result's",
		"snaps counts sink deliveries including the guaranteed final snapshot; at the default cadence short rows deliver only that one",
		"observation enables the sampled phase timers too, so the column prices the whole instrumentation layer, not just snapshot emission")
	return t, nil
}
