package core

import (
	"errors"
	"strings"
	"testing"

	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// corruptedProgram builds a program that passes Validate (which checks
// only branch targets and register bounds) but whose second thread carries
// an instruction opcode the interpreter has no case for — replaying it
// trips the interpreter's invariant panic. The opcode byte doubles as a
// content nonce so distinct fingerprints are easy to mint.
func corruptedProgram(t *testing.T, nonce int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("corrupted")
	x := b.Loc("x")
	t0 := b.Thread()
	t0.Store(x, prog.Const(1))
	t1 := b.Thread()
	t1.Load(x)
	t1.Store(x, prog.Const(nonce))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the store after the load: the panic fires only once
	// exploration has branched past the read, exercising recovery deep in
	// the DFS (and, with Workers>1, inside worker goroutines).
	p.Threads[1][1].Op = prog.InstrOp(200)
	if err := p.Validate(); err != nil {
		t.Fatalf("corrupted program must still validate: %v", err)
	}
	return p
}

func TestPanicBecomesEngineError(t *testing.T) {
	p := corruptedProgram(t, 7)
	for _, workers := range []int{1, 4} {
		res, err := Explore(p, Options{Model: mustModelT(t, "tso"), Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: corrupted program explored without error (res=%+v)", workers, res)
		}
		ee, ok := AsEngineError(err)
		if !ok {
			t.Fatalf("workers=%d: error is not an EngineError: %v", workers, err)
		}
		if ee.Op != "explore" || ee.Program != "corrupted" || ee.Model != "tso" {
			t.Errorf("workers=%d: bad identity fields: %+v", workers, ee)
		}
		if ee.Fingerprint != p.Fingerprint() {
			t.Errorf("workers=%d: fingerprint mismatch", workers)
		}
		if !strings.Contains(ee.Stack, "interp") {
			t.Errorf("workers=%d: stack does not show the panic site:\n%s", workers, ee.Stack)
		}
		if ee.PanicValue == nil {
			t.Errorf("workers=%d: panic value lost", workers)
		}
	}
}

func TestPanicInCallbackIsContained(t *testing.T) {
	n := 0
	res, err := Explore(gen.SBN(2), Options{
		Model: mustModelT(t, "sc"),
		OnExecution: func(_ *eg.Graph, _ prog.FinalState) {
			n++
			if n == 2 {
				panic("callback exploded")
			}
		},
	})
	if err == nil {
		t.Fatalf("panicking callback must fail the run, got %+v", res)
	}
	ee, ok := AsEngineError(err)
	if !ok || ee.PanicValue != "callback exploded" {
		t.Fatalf("want EngineError carrying the callback panic, got %v", err)
	}
	if ee.Stats.Executions == 0 {
		t.Error("stats at failure should show the first completed execution")
	}
}

func TestEstimatePanicBecomesEngineError(t *testing.T) {
	p := corruptedProgram(t, 9)
	_, err := Estimate(p, Options{Model: mustModelT(t, "imm")}, 16, 1)
	ee, ok := AsEngineError(err)
	if !ok {
		t.Fatalf("want EngineError from Estimate, got %v", err)
	}
	if ee.Op != "estimate" {
		t.Errorf("Op = %q, want estimate", ee.Op)
	}
}

func TestAnalysesWrapEngineError(t *testing.T) {
	p := corruptedProgram(t, 11)
	if _, err := CheckRobustness(p, mustModelT(t, "tso")); !isEngineErr(err) {
		t.Errorf("CheckRobustness: want wrapped EngineError, got %v", err)
	}
	if _, err := CheckRaces(p); !isEngineErr(err) {
		t.Errorf("CheckRaces: want wrapped EngineError, got %v", err)
	}
	if _, err := CheckLiveness(p, mustModelT(t, "tso")); !isEngineErr(err) {
		t.Errorf("CheckLiveness: want wrapped EngineError, got %v", err)
	}
}

func TestMaxEventsTruncates(t *testing.T) {
	sb := gen.SBN(3)
	full, err := Explore(sb, Options{Model: mustModelT(t, "tso")})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Explore(sb, Options{Model: mustModelT(t, "tso"), MaxEvents: full.MaxGraphEvents - 2})
	if err != nil {
		t.Fatalf("an event budget must truncate, not error: %v", err)
	}
	if !capped.Truncated || capped.TruncatedReason != TruncMaxEvents {
		t.Fatalf("Truncated=%v reason=%q, want max-events", capped.Truncated, capped.TruncatedReason)
	}
	if capped.Executions >= full.Executions {
		t.Errorf("capped run found %d executions, full %d — cap had no effect", capped.Executions, full.Executions)
	}
	roomy, err := Explore(sb, Options{Model: mustModelT(t, "tso"), MaxEvents: full.MaxGraphEvents})
	if err != nil {
		t.Fatal(err)
	}
	if roomy.Truncated || roomy.Executions != full.Executions {
		t.Errorf("a budget above the max graph size must be a no-op (truncated=%v execs=%d/%d)",
			roomy.Truncated, roomy.Executions, full.Executions)
	}
}

func TestMemoryBudgetTruncates(t *testing.T) {
	// One byte of budget is always already exceeded: the first branch
	// point trips the soft limit and the run returns an empty truncated
	// result — never an error or an OOM kill.
	res, err := Explore(gen.SBN(4), Options{Model: mustModelT(t, "tso"), MemoryBudget: 1})
	if err != nil {
		t.Fatalf("memory budget must degrade gracefully, got error: %v", err)
	}
	if !res.Truncated || res.TruncatedReason != TruncMemoryBudget {
		t.Fatalf("Truncated=%v reason=%q, want memory-budget", res.Truncated, res.TruncatedReason)
	}
	if res.Interrupted {
		t.Error("a budget truncation is not a context interruption")
	}
}

func TestMaxExecutionsReportsReason(t *testing.T) {
	res, err := Explore(gen.SBN(3), Options{Model: mustModelT(t, "tso"), MaxExecutions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.TruncatedReason != TruncMaxExecutions {
		t.Fatalf("Truncated=%v reason=%q, want max-executions", res.Truncated, res.TruncatedReason)
	}
}

func isEngineErr(err error) bool {
	var ee *EngineError
	return errors.As(err, &ee)
}

func mustModelT(t *testing.T, name string) memmodel.Model {
	t.Helper()
	m, err := memmodel.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
