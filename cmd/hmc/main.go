// Command hmc model-checks a litmus test against a (hardware) memory
// model. It is the front door of the library: feed it a test in the
// plain-text litmus format (see internal/litmus.Parse) or name a built-in
// corpus test, pick a model, and it reports whether the test's weak
// outcome is observable, how many executions exist, and any assertion
// failures with witness graphs.
//
// Usage:
//
//	hmc [flags] <file.lit | ->
//	hmc [flags] -test MP
//	hmc [flags] -backend portfolio -test MP
//	hmc vet [flags] <file.lit | ->
//	hmc -repro <crash-or-quarantine-artifact.json>
//
// Examples:
//
//	hmc -model imm examples/litmusfile/mp.lit
//	hmc -model tso -test SB
//	hmc -model all -test LB
//	hmc -static -checkdeps -stats -test LB
//	hmc -timeout 10s -checkpoint run.ckpt -test IRIW
//	hmc -checkpoint run.ckpt -test IRIW
//	hmc -progress 500ms -model sc -test IRIW
//	hmc -trace run.jsonl -model tso -test SB
//	hmc -workers 2 -stats -model tso -test SB
//	hmc vet -model tso -foot examples/litmusfile/mp.lit
//	hmc -repro hmcd-crashes/crash-3f2a91c0aa17-job-000042.json
//
// -progress D prints a live ticker to stderr every D (wave, executions,
// rate, an ETA derived from a quick pre-run estimate) without touching
// stdout; -trace writes a JSONL exploration trace — one event per wave,
// revisit, static prune and progress snapshot — for offline analysis.
//
// A -timeout'd or -max'd run that stops early writes its final frontier
// to the -checkpoint file; re-running with the same -checkpoint picks the
// exploration up exactly where it stopped (same program, model and
// bounds required) and, on completion, reports the same counts as an
// uninterrupted run and removes the file.
//
// -workers N explores independent branches on up to N goroutines over
// one shared state memo. Verdict and execution counts are identical to
// -workers 1 — only the wall clock changes — and it composes with
// -checkpoint, -progress and -trace.
//
// `hmc vet` lints a program without exploring it: the static analysis in
// internal/analyze reports dead stores, statically-false assertions and
// assumptions, fences that cannot order anything (positionally, or under
// the selected model), registers read before any write, out-of-range
// addresses, unreachable code, and near-symmetric threads the exact
// symmetry reduction cannot exploit. Findings print one per line as
// program:tN:pc: [code] message (severity); the exit status is non-zero
// only for error-severity findings (and for programs that fail to parse
// or validate).
//
// -backend selects the verdict engine: dfs (the default explorer), axenum
// (the herd-style axiomatic enumerator), operational (the SC/TSO/PSO
// store-buffer machines), or portfolio, which races every applicable
// engine, serves the first exhaustive verdict and cross-checks the rest —
// a disagreement prints both answers and exits non-zero.
//
// -repro replays an artifact written by the hmcd service: a crash
// artifact rebuilds the program that panicked the engine, re-runs the
// exploration with the recorded model and bounds, and reports whether the
// panic reproduces; a quarantine (backend-disagreement) artifact re-runs
// both disagreeing backends and reports whether they still split.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hmc/internal/backend"
	"hmc/internal/core"
	"hmc/internal/eg"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/obs"
	"hmc/internal/prog"
	"hmc/internal/service"
)

// progressOut receives the -progress ticker. Progress is operator
// feedback, not output: it goes to stderr so piped verdicts stay clean
// (tests swap it).
var progressOut io.Writer = os.Stderr

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hmc:", err)
		os.Exit(1)
	}
}

// options is everything hmc's command line sets.
type options struct {
	model, test, repro, dot, checkpoint, trace, backend                    string
	verbose, showProg, robust, races, live, symm, static, checkDeps, stats bool
	max, maxEvents, workers, estimate                                      int
	memBudget                                                              int64
	timeout, progress                                                      time.Duration
}

// newFlags defines hmc's flags, each bound to its field of o.
func newFlags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("hmc", flag.ContinueOnError)
	fs.StringVar(&o.model, "model", "imm", "memory model: "+fmt.Sprint(memmodel.Names())+", or all to check under every model")
	fs.StringVar(&o.test, "test", "", "run a built-in corpus test instead of a file")
	fs.BoolVar(&o.verbose, "v", false, "print every consistent execution graph")
	fs.IntVar(&o.max, "max", 0, "stop after this many executions (0 = all)")
	fs.IntVar(&o.maxEvents, "max-events", 0, "prune execution graphs larger than this many events (0 = no cap)")
	fs.Int64Var(&o.memBudget, "mem-budget", 0, "soft heap budget in bytes; exploration truncates instead of exhausting memory (0 = no budget)")
	fs.StringVar(&o.repro, "repro", "", "replay a crash artifact written by hmcd and report whether the engine panic reproduces")
	fs.BoolVar(&o.showProg, "p", false, "print the parsed program")
	fs.StringVar(&o.dot, "dot", "", "write a witness execution (weak outcome if observable) as Graphviz DOT to this file")
	fs.BoolVar(&o.robust, "robust", false, "additionally report whether the program is robust (SC-equivalent) under each model")
	fs.BoolVar(&o.races, "races", false, "report C11 data races on plain accesses (rc11 semantics)")
	fs.IntVar(&o.workers, "workers", 1, "parallel exploration workers (1 = sequential)")
	fs.BoolVar(&o.live, "live", false, "check liveness: report awaits that block forever (deadlocks)")
	fs.BoolVar(&o.symm, "symm", false, "symmetry reduction: explore one representative per orbit of identical threads")
	fs.BoolVar(&o.static, "static", false, "static-analysis pruning: skip rf/co/revisit work on provably thread-local, single-writer and never-read locations (count-preserving)")
	fs.BoolVar(&o.checkDeps, "checkdeps", false, "sanitizer: assert every dynamic dependency is covered by the static dependency sets")
	fs.IntVar(&o.estimate, "estimate", 0, "skip exploration; predict the execution count with this many random probes")
	fs.BoolVar(&o.stats, "stats", false, "print exploration statistics (states, memo hits, revisits)")
	fs.DurationVar(&o.timeout, "timeout", 0, "wall-clock budget for each check (0 = none); an interrupted check prints INTERRUPTED with its partial counts")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "checkpoint exploration to this file (periodically and when interrupted/truncated); if the file exists, resume from it")
	fs.DurationVar(&o.progress, "progress", 0, "print a live progress ticker (executions, rate, ETA) to stderr at this cadence (0 = off)")
	fs.StringVar(&o.trace, "trace", "", "write a JSONL exploration trace (waves, revisits, prunes, snapshots) to this file")
	fs.StringVar(&o.backend, "backend", "dfs", "verdict engine: "+strings.Join(backend.Names(), "|")+" (non-dfs prints a normalized verdict; portfolio races all applicable engines and cross-checks)")
	return fs
}

// modelList expands a -model value: one model name, or all of them.
func modelList(model string) []string {
	if model == "all" {
		return memmodel.Names()
	}
	return []string{model}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "vet" {
		return vet(args[1:], out)
	}
	var o options
	fs := newFlags(&o)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.checkpoint != "" && o.model == "all" {
		return fmt.Errorf("-checkpoint works on a single model, not -model all")
	}

	if o.repro != "" {
		return repro(out, o.repro)
	}
	p, err := loadProgram(fs.Args(), o.test)
	if err != nil {
		return err
	}
	if o.showProg {
		fmt.Fprint(out, p)
	}

	// The timeout budgets each check/analysis individually: one slow
	// model under -model all does not starve the rest of their budget.
	newCtx := func() (context.Context, context.CancelFunc) {
		if o.timeout > 0 {
			return context.WithTimeout(context.Background(), o.timeout)
		}
		return context.Background(), func() {}
	}

	// One spec per model: the bounds are the same under every model.
	specFor := func(model string) backend.Spec {
		return backend.Spec{
			Model:         model,
			MaxExecutions: o.max,
			MaxEvents:     o.maxEvents,
			MemoryBudget:  o.memBudget,
			Workers:       o.workers,
			Symmetry:      o.symm,
		}
	}

	models := modelList(o.model)
	if o.backend != "dfs" {
		// Alternate engines answer through the normalized Verdict, not the
		// explorer's native result, so the DFS-shaped extras don't compose.
		if o.verbose || o.dot != "" || o.trace != "" || o.checkpoint != "" || o.progress > 0 ||
			o.estimate > 0 || o.static || o.checkDeps || o.races || o.live || o.robust {
			return fmt.Errorf("-backend %s prints normalized verdicts; it composes only with -model/-test/-max/-max-events/-mem-budget/-workers/-symm/-timeout/-stats", o.backend)
		}
		for _, name := range models {
			if err := checkBackend(out, p, specFor(name), o.backend, o.stats, newCtx); err != nil {
				return err
			}
		}
		return nil
	}

	if o.estimate > 0 {
		for _, name := range models {
			m, err := memmodel.ByName(name)
			if err != nil {
				return err
			}
			ctx, cancel := newCtx()
			est, err := core.Estimate(p, core.Options{Model: m, Context: ctx}, o.estimate, 1)
			cancel()
			if err != nil {
				return err
			}
			note := ""
			if est.Interrupted {
				note = " INTERRUPTED (partial probes)"
			}
			fmt.Fprintf(out, "%-16s model=%-8s estimate: %v%s\n", p.Name, name, est, note)
		}
		return nil
	}
	for _, name := range models {
		if err := check(out, p, specFor(name), &o, newCtx); err != nil {
			return err
		}
		if o.robust {
			if err := reportRobustness(out, p, name, newCtx); err != nil {
				return err
			}
		}
		if o.live {
			if err := reportLiveness(out, p, name, newCtx); err != nil {
				return err
			}
		}
	}
	if o.races {
		ctx, cancel := newCtx()
		defer cancel()
		rep, err := core.CheckRaces(p, core.Options{Context: ctx})
		if err != nil {
			return err
		}
		switch {
		case len(rep.Races) > 0:
			for _, r := range rep.Races {
				fmt.Fprintf(out, "DATA RACE: %v (location %s)\n", r, p.LocName(r.Loc))
			}
		case rep.Interrupted:
			fmt.Fprintf(out, "race check INTERRUPTED (partial: no race in the %d rc11 executions examined)\n", rep.Executions)
		default:
			fmt.Fprintf(out, "race-free: no unordered conflicting plain accesses in %d rc11 executions\n", rep.Executions)
		}
	}
	return nil
}

func reportRobustness(out io.Writer, p *prog.Program, model string, newCtx func() (context.Context, context.CancelFunc)) error {
	m, err := memmodel.ByName(model)
	if err != nil {
		return err
	}
	ctx, cancel := newCtx()
	defer cancel()
	rep, err := core.CheckRobustness(p, m, core.Options{Context: ctx})
	if err != nil {
		return err
	}
	if rep.Robust {
		if rep.Interrupted {
			fmt.Fprintf(out, "  robustness against %s INTERRUPTED (partial: %d executions, all SC so far)\n", model, rep.Executions)
			return nil
		}
		fmt.Fprintf(out, "  robust against %s: every execution is sequentially consistent\n", model)
	} else {
		fmt.Fprintf(out, "  NOT robust against %s: %d of %d executions are non-SC; witness:\n%s",
			model, rep.NonSC, rep.Executions, rep.Witness.StringNamed(p.LocName))
	}
	return nil
}

func reportLiveness(out io.Writer, p *prog.Program, model string, newCtx func() (context.Context, context.CancelFunc)) error {
	m, err := memmodel.ByName(model)
	if err != nil {
		return err
	}
	ctx, cancel := newCtx()
	defer cancel()
	rep, err := core.CheckLiveness(p, m, core.Options{Context: ctx})
	if err != nil {
		return err
	}
	if rep.Live() {
		if rep.Interrupted {
			fmt.Fprintf(out, "  liveness under %s INTERRUPTED (partial: no deadlock in %d blocked executions so far)\n",
				model, rep.BlockedExecutions)
			return nil
		}
		fmt.Fprintf(out, "  live under %s: %d blocked executions, all schedulable away (%d fairness, %d bound)\n",
			model, rep.BlockedExecutions, rep.FairnessBlocks, rep.BoundBlocks)
		return nil
	}
	for _, pb := range rep.PermanentBlocks {
		fmt.Fprintf(out, "  DEADLOCK under %s: %v; witness:\n%s", model, pb, pb.Witness.StringNamed(p.LocName))
	}
	return nil
}

// checkBackend answers one model through the backend interface: a single
// alternate engine, or the portfolio racing every applicable one.
func checkBackend(out io.Writer, p *prog.Program, spec backend.Spec, name string, stats bool, newCtx func() (context.Context, context.CancelFunc)) error {
	model := spec.Model
	ctx, cancel := newCtx()
	defer cancel()
	if name == "portfolio" {
		pf := backend.NewPortfolio(backend.PortfolioOptions{})
		res, err := pf.Run(ctx, p, spec)
		if err != nil {
			return err
		}
		printVerdict(out, p, model, res.Verdict)
		if stats || res.Disagreement != nil {
			for _, att := range res.Attempts {
				line := fmt.Sprintf("  %-11s %-9s", att.Backend, att.Status)
				if att.Verdict != nil {
					line += fmt.Sprintf(" digest=%s execs=%d", att.Verdict.OutcomeDigest, att.Verdict.Executions)
				}
				if att.Reason != "" {
					line += " (" + att.Reason + ")"
				}
				fmt.Fprintln(out, line)
			}
		}
		if d := res.Disagreement; d != nil {
			return fmt.Errorf("BACKEND DISAGREEMENT (%s vs %s): %s", d.Winner.Backend, d.Dissenter.Backend, d.Diff)
		}
		return nil
	}
	b, err := backend.ByName(name)
	if err != nil {
		return err
	}
	if err := b.Applicable(p, spec); err != nil {
		return err
	}
	v, err := b.Run(ctx, p, spec)
	if err != nil {
		return err
	}
	printVerdict(out, p, model, v)
	return nil
}

// printVerdict renders a normalized backend verdict in the spirit of the
// classic check line.
func printVerdict(out io.Writer, p *prog.Program, model string, v *backend.Verdict) {
	if v == nil {
		fmt.Fprintf(out, "%-16s model=%-8s no verdict\n", p.Name, model)
		return
	}
	status := "forbidden"
	if v.Allowed {
		status = "ALLOWED"
	}
	if !v.Exhaustive && !v.Allowed {
		status = "not observed (INCONCLUSIVE)"
	}
	line := fmt.Sprintf("%-16s model=%-8s backend=%-11s executions=%-6d weak outcome [%s]: %s",
		p.Name, model, v.Backend, v.Executions, p.ExistsDesc, status)
	switch {
	case v.Interrupted:
		line += " INTERRUPTED (partial)"
	case !v.Exhaustive:
		line += fmt.Sprintf(" (truncated: %s)", v.TruncatedReason)
	}
	line += fmt.Sprintf(" digest=%s", v.OutcomeDigest)
	fmt.Fprintln(out, line)
	if v.Assertion == backend.Fail {
		for _, msg := range v.AssertionErrors {
			fmt.Fprintf(out, "  assertion failure: %s\n", msg)
		}
	}
}

// repro replays an artifact written by the hmcd service: a crash artifact
// re-runs the exploration that panicked and reports whether the panic
// reproduces; a quarantine (backend-disagreement) artifact re-runs both
// disagreeing backends and reports whether they still split. Exit status
// is success either way for crashes — "no longer reproduces" is a useful
// answer, not a failure — but a still-standing disagreement exits non-zero
// exactly like the service's quarantined job state.
func repro(out io.Writer, path string) error {
	if service.IsQuarantineArtifact(path) {
		return reproQuarantine(out, path)
	}
	a, err := service.LoadCrashArtifact(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replaying %s: job %s, program %q (fingerprint %.12s), model %s\n",
		path, a.JobID, a.Program, a.Fingerprint, a.Model)
	fmt.Fprintf(out, "recorded panic: %s\n", a.Panic)
	p, err := a.BuildProgram()
	if err != nil {
		return fmt.Errorf("%w\nprogram dump (not replayable):\n%s", err, a.ProgramDump)
	}
	opts, err := a.Options()
	if err != nil {
		return err
	}
	res, err := core.Explore(p, opts)
	if ee, ok := core.AsEngineError(err); ok {
		fmt.Fprintf(out, "REPRODUCED: engine panic during %s: %v\n%s", ee.Op, ee.PanicValue, ee.Stack)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "NOT REPRODUCED: exploration completed cleanly (%d executions, %d blocked)\n",
		res.Executions, res.Blocked)
	return nil
}

// reproQuarantine replays a backend-disagreement artifact: rebuild the
// disputed program and re-run the two backends that split. Both verdicts
// print either way; agreement on the re-run suggests a since-fixed (or
// non-deterministic — worse) engine bug, while a reproduced disagreement
// exits non-zero.
func reproQuarantine(out io.Writer, path string) error {
	a, err := service.LoadQuarantineArtifact(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replaying %s: job %s, program %q (fingerprint %.12s), model %s\n",
		path, a.JobID, a.Program, a.Fingerprint, a.Model)
	fmt.Fprintf(out, "recorded disagreement: %s (winner %s, dissenter %s)\n",
		a.Diff, a.Winner.Backend, a.Dissenter.Backend)
	p, err := a.BuildProgram()
	if err != nil {
		return fmt.Errorf("%w\nprogram dump (not replayable):\n%s", err, a.ProgramDump)
	}
	verdicts := make([]*backend.Verdict, 0, 2)
	for _, name := range []string{a.Winner.Backend, a.Dissenter.Backend} {
		b, err := backend.ByName(name)
		if err != nil {
			return err
		}
		if err := b.Applicable(p, a.Spec); err != nil {
			return fmt.Errorf("backend %s no longer applicable: %w", name, err)
		}
		v, err := b.Run(context.Background(), p, a.Spec)
		if err != nil {
			return fmt.Errorf("backend %s: %w", name, err)
		}
		printVerdict(out, p, a.Model, v)
		verdicts = append(verdicts, v)
	}
	if diff := backend.Diff(verdicts[0], verdicts[1]); diff != "" {
		return fmt.Errorf("REPRODUCED: backends still disagree: %s", diff)
	}
	fmt.Fprintln(out, "NOT REPRODUCED: both backends now agree")
	return nil
}

// loadProgram resolves the program from a corpus test name or a litmus
// file ("-" for stdin).
func loadProgram(args []string, testName string) (*prog.Program, error) {
	if testName != "" {
		return litmus.Resolve("", testName)
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("want exactly one litmus file (or '-' for stdin), or -test <name>")
	}
	var src []byte
	var err error
	if args[0] == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(args[0])
	}
	if err != nil {
		return nil, err
	}
	return litmus.Resolve(string(src), "")
}

// progressTicker renders one snapshot as a stderr line. The ETA comes
// from a quick silent Estimate run before exploration; it is an upper
// bound (see core.Estimate), so it shrinks rather than grows.
func progressTicker(snap obs.ProgressSnapshot) {
	if snap.Final {
		return // the verdict line follows immediately; no ticker needed
	}
	line := fmt.Sprintf("progress: wave=%d execs=%d (%.0f/s) blocked=%d states=%d memo-hits=%d revisits=%d/%d",
		snap.Wave, snap.Executions, snap.ExecsPerSec, snap.Blocked,
		snap.States, snap.MemoHits, snap.RevisitsTaken, snap.RevisitsTried)
	if snap.ETA > 0 {
		line += fmt.Sprintf(" eta~%s", snap.ETA.Round(100*time.Millisecond))
	}
	fmt.Fprintln(progressOut, line)
}

// resumeError explains a -checkpoint file that cannot resume this run: it
// was written for another program, model or bounds, or is unreadable.
func resumeError(path string, err error) error {
	return fmt.Errorf("checkpoint %s cannot resume this run (%w); delete it or choose another -checkpoint path", path, err)
}

// writeCheckpointFile writes cp through the service's atomic writer, so a
// crash mid-write leaves the previous checkpoint, never a torn one.
func writeCheckpointFile(path string, cp *core.Checkpoint) error {
	data, err := cp.Encode()
	if err != nil {
		return err
	}
	return service.WriteFileAtomic(path, data)
}

func check(out io.Writer, p *prog.Program, spec backend.Spec, o *options, newCtx func() (context.Context, context.CancelFunc)) error {
	opts, err := spec.Options()
	if err != nil {
		return err
	}
	model := spec.Model
	ctx, cancel := newCtx()
	defer cancel()
	opts.Context, opts.StaticAnalysis, opts.CheckDeps = ctx, o.static, o.checkDeps
	var tracer *obs.Tracer
	var traceFile *os.File
	if o.trace != "" {
		traceFile, err = os.Create(o.trace)
		if err != nil {
			return err
		}
		tracer = obs.NewTracer(traceFile)
		opts.Trace = tracer
	}
	if o.progress > 0 {
		// A quick silent probe run seeds the ETA; its failure modes (panic
		// boundary, over-count on revisit-heavy spaces) cost nothing here —
		// a zero estimate just means the ticker shows no ETA.
		est := 0.0
		if er, eerr := core.Estimate(p, core.Options{Model: opts.Model}, 64, 1); eerr == nil {
			est = er.Mean
		}
		opts.Progress = &core.ProgressOptions{
			Every:        o.progress,
			EstimateMean: est,
			Sink:         progressTicker,
		}
	}
	if o.checkpoint != "" {
		// The file exists only while work is left: a completed run removes it.
		data, err := os.ReadFile(o.checkpoint)
		switch {
		case err == nil:
			cp, err := core.DecodeCheckpoint(data)
			if err == nil {
				err = cp.Compatible(p, opts)
			}
			if err != nil {
				return resumeError(o.checkpoint, err)
			}
			opts.ResumeFrom = cp
			fmt.Fprintf(out, "resuming from %s (%d executions already explored)\n", o.checkpoint, cp.Stats.Executions)
		case !errors.Is(err, os.ErrNotExist):
			return err
		}
		opts.Checkpoint = &core.CheckpointOptions{
			EveryExecs: core.DefaultCheckpointEvery,
			Sink: func(cp *core.Checkpoint) {
				writeCheckpointFile(o.checkpoint, cp) //nolint:errcheck // periodic snapshot: next one retries
			},
		}
	}
	var witness *eg.Graph
	witnessWeak := false
	opts.OnExecution = func(g *eg.Graph, fsv prog.FinalState) {
		if o.verbose {
			fmt.Fprintf(out, "--- execution (mem=%v)\n%s", fsv.Mem, g.StringNamed(p.LocName))
		}
		weak := p.Exists != nil && p.Exists(fsv)
		if witness == nil || (weak && !witnessWeak) {
			witness = g.Clone()
			witnessWeak = weak
		}
	}
	res, err := core.Explore(p, opts)
	if traceFile != nil {
		cerr := traceFile.Close()
		switch {
		case tracer.Err() != nil:
			fmt.Fprintf(out, "warning: trace %s truncated: %v\n", o.trace, tracer.Err())
		case cerr != nil:
			fmt.Fprintf(out, "warning: trace %s: %v\n", o.trace, cerr)
		default:
			fmt.Fprintf(out, "trace written to %s (%d events)\n", o.trace, tracer.Events())
		}
	}
	if errors.Is(err, core.ErrCheckpointMismatch) {
		return resumeError(o.checkpoint, err)
	}
	if err != nil {
		return err
	}
	if o.checkpoint != "" {
		if res.Checkpoint != nil {
			// Interrupted or truncated: persist the final frontier so the
			// run can be picked up exactly where it stopped.
			if err := writeCheckpointFile(o.checkpoint, res.Checkpoint); err != nil {
				return err
			}
			fmt.Fprintf(out, "checkpoint written to %s (run again with -checkpoint %s to continue)\n", o.checkpoint, o.checkpoint)
		} else if err := os.Remove(o.checkpoint); err == nil {
			// Completed: a periodic snapshot would only resume into work
			// already done, so retire it.
			fmt.Fprintf(out, "exploration complete; checkpoint %s removed\n", o.checkpoint)
		}
	}
	if o.dot != "" && witness != nil {
		f, err := os.Create(o.dot)
		if err != nil {
			return err
		}
		if err := witness.WriteDot(f, p.LocName); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "witness written to %s (weak outcome: %v)\n", o.dot, witnessWeak)
	}
	if res.Interrupted {
		// Partial counts must not read like a verdict: an interrupted run
		// proves only what it observed (a weak outcome it did find is
		// real; "forbidden" would be unfounded).
		verdict := "not observed (INCONCLUSIVE)"
		if res.ExistsCount > 0 {
			verdict = "ALLOWED"
		}
		fmt.Fprintf(out, "%-16s model=%-8s INTERRUPTED (partial: %d executions, %d blocked) weak outcome [%s]: %s\n",
			p.Name, model, res.Executions, res.Blocked, p.ExistsDesc, verdict)
	} else {
		status := "forbidden"
		if res.ExistsCount > 0 {
			status = "ALLOWED"
		}
		fmt.Fprintf(out, "%-16s model=%-8s executions=%-6d blocked=%-4d weak outcome [%s]: %s",
			p.Name, model, res.Executions, res.Blocked, p.ExistsDesc, status)
		if res.Truncated {
			if res.TruncatedReason != "" {
				fmt.Fprintf(out, " (truncated: %s)", res.TruncatedReason)
			} else {
				fmt.Fprint(out, " (truncated)")
			}
		}
		fmt.Fprintln(out)
	}
	if o.stats {
		fmt.Fprintf(out, "  states=%d memo-hits=%d consistency-checks=%d sink-extensions=%d revisits=%d/%d (taken/tried) repair-fails=%d max-graph=%d\n",
			res.States, res.MemoHits, res.ConsistencyChecks, res.SinkExtensions,
			res.RevisitsTaken, res.RevisitsTried, res.RevisitsRepairFail, res.MaxGraphEvents)
		if o.static {
			fmt.Fprintf(out, "  static-pruned: rf=%d co=%d revisit-scans=%d\n",
				res.StaticPrunedRf, res.StaticPrunedCo, res.StaticPrunedScans)
		}
	}
	if o.checkDeps {
		if res.DepViolations == 0 {
			fmt.Fprintf(out, "  checkdeps: ok (all dynamic dependencies within static sets)\n")
		} else {
			fmt.Fprintf(out, "  CHECKDEPS: %d dynamic dependencies outside the static sets\n", res.DepViolations)
			for _, d := range res.DepViolationDetails {
				fmt.Fprintf(out, "    %s\n", d)
			}
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(out, "assertion failure in thread %d: %s\nwitness:\n%s", e.Thread, e.Msg, e.Graph.StringNamed(p.LocName))
	}
	return nil
}
