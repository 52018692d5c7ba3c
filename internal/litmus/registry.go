package litmus

import (
	"errors"
	"fmt"
	"sync"

	"hmc/internal/eg"
	"hmc/internal/prog"
)

// vd builds a full verdict map in the fixed model order. arm is ARMv8-lite
// (multi-copy-atomic); imm is IMM-lite (POWER-flavoured, non-MCA).
func vd(sc, tso, pso, arm, ra, relaxed, imm bool) map[string]bool {
	return map[string]bool{
		"sc": sc, "tso": tso, "pso": pso, "arm": arm, "ra": ra, "relaxed": relaxed, "imm": imm,
	}
}

// ex builds an execution-count map (pass -1 to omit a model).
func ex(sc, tso, pso, arm, ra, relaxed, imm int) map[string]int {
	m := map[string]int{}
	put := func(name string, v int) {
		if v >= 0 {
			m[name] = v
		}
	}
	put("sc", sc)
	put("tso", tso)
	put("pso", pso)
	put("arm", arm)
	put("ra", ra)
	put("relaxed", relaxed)
	put("imm", imm)
	return m
}

// rc11Verdicts overlays the rc11 expectations onto the corpus. Under
// rc11-lite, unannotated accesses are relaxed atomics: there is no
// synchronises-with (so MP-style tests are allowed even where RA forbids
// them), dependencies and lw/ld fences carry no meaning, po∪rf cycles are
// forbidden outright (every LB variant), and full fences act as seq_cst
// anchors (restoring SB/MP/IRIW/R when fully fenced).
var rc11Verdicts = map[string]bool{
	"SB": true, "SB+ffs": false, "SB+lws": true,
	"MP": true, "MP+ff+ff": false, "MP+lw+ld": true, "MP+lw+lw": true, "MP+lw+addr": true,
	"MP+po+addr": true, "MP+lw+ctrl": true,
	"LB": false, "LB+datas": false, "LB+ctrls": false, "LB+valdeps": false, "LB+data+po": false,
	"2+2W": true, "2+2W+lws": true,
	"IRIW": true, "IRIW+ffs": false, "IRIW+addrs": true,
	"WRC": true, "WRC+data+addr": true,
	"S+po+po": true, "S+lw+data": true,
	"R+po+po": true, "R+ff+ff": false,
	"ISA2": true, "ISA2+lw+data+addr": true,
	"RWC+pos": true, "RWC+ffs": false,
	"CoRR": false, "inc(2)": false, "cas-agree": false, "CoWR": false,
	"CoWW": false, "CoRW1": false, "CoRW2": false,
}

// Corpus returns the full litmus-test corpus with expected verdicts.
// Verdicts follow the published behaviour of the corresponding hardware
// tests (x86-TSO, SPARC PSO, POWER-flavoured IMM-lite); see DESIGN.md for
// the IMM-lite axioms these pin down.
func Corpus() []Test {
	tests := corpus()
	for i := range tests {
		if v, ok := rc11Verdicts[tests[i].Name]; ok {
			tests[i].Allowed["rc11"] = v
		}
	}
	tests = append(tests, modeTests()...)
	return tests
}

func corpus() []Test {
	const (
		ff = eg.FenceFull
		lw = eg.FenceLW
		ld = eg.FenceLD
		no = eg.FenceNone
	)
	return []Test{
		// --- store buffering ---
		{Name: "SB", P: SB(no),
			Allowed:    vd(false, true, true, true, true, true, true),
			Executions: ex(3, 4, 4, 4, 4, 4, 4)},
		{Name: "SB+ffs", P: SB(ff),
			Allowed:    vd(false, false, false, false, true, true, false),
			Executions: ex(3, 3, 3, 3, 4, 4, 3)},
		{Name: "SB+lws", P: SB(lw),
			Allowed: vd(false, true, true, true, true, true, true)},

		// --- message passing ---
		{Name: "MP", P: MP(no, no, MPNone),
			Allowed:    vd(false, false, true, true, false, true, true),
			Executions: ex(3, 3, 4, 4, 3, 4, 4)},
		{Name: "MP+ff+ff", P: MP(ff, ff, MPNone),
			Allowed: vd(false, false, false, false, false, true, false)},
		{Name: "MP+lw+ld", P: MP(lw, ld, MPNone),
			Allowed: vd(false, false, false, false, false, true, false)},
		// lw orders everything but W→R, so it also orders the reader's
		// R→R: forbidden under arm too. A W×W-only (DMB ST) lw would
		// allow it there — this test pins which rule arm uses.
		{Name: "MP+lw+lw", P: MP(lw, lw, MPNone),
			Allowed:    vd(false, false, false, false, false, true, false),
			Executions: ex(3, 3, 3, 3, 3, 4, 3)},
		{Name: "MP+lw+addr", P: MP(lw, no, MPAddr),
			Allowed: vd(false, false, false, false, false, true, false)},
		{Name: "MP+po+addr", P: MP(no, no, MPAddr),
			Allowed: vd(false, false, true, true, false, true, true)},
		{Name: "MP+lw+ctrl", P: MP(lw, no, MPCtrl),
			// A control dependency does not order read→read on hardware:
			// MP stays allowed under IMM even with a fenced writer.
			Allowed: vd(false, false, false, true, false, true, true)},

		// --- load buffering: the HMC headline family ---
		{Name: "LB", P: LB(LBNone),
			Allowed:    vd(false, false, false, true, false, true, true),
			Executions: ex(3, 3, 3, 4, 3, 4, 4)},
		// The dependencies in LB+datas/LB+ctrls are *value-preserving*
		// (multiply-by-zero / always-fallthrough): the (1,1) execution is
		// constructively derivable, so the coherence-only model observes
		// it, while IMM's dependency-cycle axiom (no thin air) forbids it.
		{Name: "LB+datas", P: LB(LBData),
			Allowed:    vd(false, false, false, false, false, true, false),
			Executions: ex(3, 3, 3, 3, 3, 4, 3)},
		{Name: "LB+ctrls", P: LB(LBCtrl),
			Allowed: vd(false, false, false, false, false, true, false)},
		// LB+valdeps copies the read value for real: the "both read 1"
		// outcome is genuine out-of-thin-air. Constructive exploration
		// still derives the rf-cyclic execution — but with the only
		// justifiable values (all zero), so Exists never holds anywhere,
		// and under IMM the dependency cycle rules the graph out entirely.
		{Name: "LB+valdeps", P: LBVal(),
			Allowed:    vd(false, false, false, false, false, false, false),
			Executions: ex(3, 3, 3, 3, 3, 4, 3)},
		{Name: "LB+data+po", P: LB(LBOne),
			Allowed: vd(false, false, false, true, false, true, true)},

		// --- 2+2W ---
		{Name: "2+2W", P: TwoPlusTwoW(no),
			Allowed:    vd(false, false, true, true, true, true, true),
			Executions: ex(3, 3, 4, 4, 4, 4, 4)},
		{Name: "2+2W+lws", P: TwoPlusTwoW(lw),
			Allowed: vd(false, false, false, false, true, true, false)},

		// --- IRIW ---
		{Name: "IRIW", P: IRIW(no, false),
			Allowed:    vd(false, false, false, true, true, true, true),
			Executions: ex(15, 15, 15, 16, 16, 16, 16)},
		{Name: "IRIW+ffs", P: IRIW(ff, false),
			Allowed: vd(false, false, false, false, true, true, false)},
		{Name: "IRIW+addrs", P: IRIW(no, true),
			// The MCA divide: address dependencies alone forbid IRIW on
			// ARMv8 (multi-copy-atomic) but not on POWER-flavoured IMM.
			Allowed:    vd(false, false, false, false, true, true, true),
			Executions: ex(15, 15, 15, 15, 16, 16, 16)},

		// --- WRC / S / R ---
		{Name: "WRC", P: WRC(false),
			Allowed:    vd(false, false, false, true, false, true, true),
			Executions: ex(7, 7, 7, 8, 7, 8, 8)},
		{Name: "WRC+data+addr", P: WRC(true),
			Allowed: vd(false, false, false, false, false, true, false)},
		{Name: "S+po+po", P: S(no, false),
			Allowed:    vd(false, false, true, true, false, true, true),
			Executions: ex(3, 3, 4, 4, 3, 4, 4)},
		{Name: "S+lw+data", P: S(lw, true),
			Allowed: vd(false, false, false, false, false, true, false)},
		{Name: "R+po+po", P: R(no),
			Allowed:    vd(false, true, true, true, true, true, true),
			Executions: ex(3, 4, 4, 4, 4, 4, 4)},
		{Name: "R+ff+ff", P: R(ff),
			Allowed: vd(false, false, false, false, true, true, false)},

		// --- ISA2 / RWC ---
		{Name: "ISA2", P: ISA2(no, false),
			Allowed: vd(false, false, true, true, false, true, true)},
		{Name: "ISA2+lw+data+addr", P: ISA2(lw, true),
			// B-cumulativity: the writer's fence plus the dependency chain
			// forbids the stale read on both hardware models.
			Allowed: vd(false, false, false, false, false, true, false)},
		// RWC needs only the W→R reordering on T2: allowed from TSO on
		// (the checker corrected the author's first guess here).
		{Name: "RWC+pos", P: RWC(no),
			Allowed: vd(false, true, true, true, true, true, true)},
		{Name: "RWC+ffs", P: RWC(ff),
			Allowed: vd(false, false, false, false, true, true, false)},

		// --- coherence / atomicity ---
		{Name: "CoRR", P: CoRR(),
			Allowed:    vd(false, false, false, false, false, false, false),
			Executions: ex(3, 3, 3, 3, 3, 3, 3)},
		{Name: "inc(2)", P: Inc(2),
			Allowed:    vd(false, false, false, false, false, false, false),
			Executions: ex(2, 2, 2, 2, 2, 2, 2)},
		{Name: "cas-agree", P: CASAgree(),
			Allowed: vd(false, false, false, false, false, false, false)},
		{Name: "CoWR", P: CoWR(),
			Allowed:    vd(false, false, false, false, false, false, false),
			Executions: ex(3, 3, 3, 3, 3, 3, 3)},
		{Name: "CoWW", P: CoWW(),
			Allowed:    vd(false, false, false, false, false, false, false),
			Executions: ex(1, 1, 1, 1, 1, 1, 1)},
		{Name: "CoRW1", P: CoRW1(),
			Allowed:    vd(false, false, false, false, false, false, false),
			Executions: ex(1, 1, 1, 1, 1, 1, 1)},
		{Name: "CoRW2", P: CoRW2(),
			Allowed:    vd(false, false, false, false, false, false, false),
			Executions: ex(3, 3, 3, 3, 3, 3, 3)},
	}
}

// corpusIndex maps each corpus test name to its test, built once.
var corpusIndex = sync.OnceValue(func() map[string]Test {
	idx := map[string]Test{}
	for _, t := range Corpus() {
		idx[t.Name] = t
	}
	return idx
})

// ByName returns the corpus test with the given name. Every caller shares
// the one Test (a prog.Program memoizes nothing): never modify it.
func ByName(name string) (Test, bool) {
	t, ok := corpusIndex()[name]
	return t, ok
}

// Resolve builds the program a job names: litmus source text or a corpus
// test name, exactly one of them non-empty. It is the one place a program
// request becomes a program — for hmc -test and litmus files, hmcd
// submissions, restart replay and crash and quarantine artifacts.
func Resolve(source, test string) (*prog.Program, error) {
	switch {
	case source != "" && test != "":
		return nil, errors.New(`give a litmus "source" or a corpus "test" name, not both`)
	case source != "":
		p, err := Parse(source)
		if err != nil {
			return nil, fmt.Errorf("parse: %w", err)
		}
		return p, nil
	case test != "":
		tc, ok := ByName(test)
		if !ok {
			return nil, fmt.Errorf("unknown corpus test %q (see hmc-litmus for the list)", test)
		}
		return tc.P, nil
	}
	return nil, errors.New(`need a litmus "source" or a corpus "test" name`)
}

// Names lists all corpus test names in order.
func Names() []string {
	ts := Corpus()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}
