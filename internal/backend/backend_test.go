package backend

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hmc/internal/litmus"
	"hmc/internal/prog"
)

// mustTest pulls a corpus program by name.
func mustTest(t *testing.T, name string) *prog.Program {
	t.Helper()
	tc, ok := litmus.ByName(name)
	if !ok {
		t.Fatalf("corpus test %q missing", name)
	}
	return tc.P
}

// bigProgram builds a program whose visible-op count exceeds n.
func bigProgram(t *testing.T, n int) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("big")
	x := b.Loc("x")
	th := b.Thread()
	for i := 0; i <= n; i++ {
		th.Store(x, prog.Const(1))
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestUnsupportedErrorWrapsSentinel(t *testing.T) {
	err := Unsupported("axenum", "reason %d", 7)
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Unsupported() does not wrap ErrUnsupported: %v", err)
	}
	var ue *UnsupportedError
	if !errors.As(err, &ue) || ue.Backend != "axenum" || ue.Reason != "reason 7" {
		t.Fatalf("typed fields wrong: %+v", ue)
	}
}

// TestOperationalGuards exercises every applicability guard of the
// operational backend: model (TSO/PSO/SC machines only), DFS-shaped
// bounds, visible-op bound, instruction bound.
func TestOperationalGuards(t *testing.T) {
	p := mustTest(t, "SB")
	o := &Operational{}
	for _, model := range []string{"sc", "tso", "pso"} {
		if err := o.Applicable(p, Spec{Model: model}); err != nil {
			t.Errorf("model %s should be applicable: %v", model, err)
		}
	}
	for _, model := range []string{"imm", "rc11", "relaxed"} {
		err := o.Applicable(p, Spec{Model: model})
		if !errors.Is(err, ErrUnsupported) {
			t.Errorf("model %s: want ErrUnsupported, got %v", model, err)
		}
	}
	if err := o.Applicable(p, Spec{Model: "no-such-model"}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("unknown model: want ErrUnsupported, got %v", err)
	}
	boundSpecs := map[string]Spec{
		"max-executions": {Model: "tso", MaxExecutions: 5},
		"max-events":     {Model: "tso", MaxEvents: 10},
		"memory-budget":  {Model: "tso", MemoryBudget: 1 << 20},
		"symmetry":       {Model: "tso", Symmetry: true},
	}
	for name, spec := range boundSpecs {
		if err := o.Applicable(p, spec); !errors.Is(err, ErrUnsupported) {
			t.Errorf("bound %s: want ErrUnsupported, got %v", name, err)
		}
	}
	// Size guards: the default op bound, a custom op bound, the instr bound.
	if err := o.Applicable(bigProgram(t, DefaultOperationalMaxOps), Spec{Model: "tso"}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("oversized program: want ErrUnsupported, got %v", err)
	}
	tight := &Operational{MaxOps: 1}
	if err := tight.Applicable(p, Spec{Model: "tso"}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("custom op bound: want ErrUnsupported, got %v", err)
	}
	tightInstr := &Operational{MaxInstrs: 1}
	if err := tightInstr.Applicable(p, Spec{Model: "tso"}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("custom instr bound: want ErrUnsupported, got %v", err)
	}
}

// TestAxenumGuards exercises the axiomatic enumerator's guards: registry
// check, the relaxed out-of-thin-air carve-out, DFS-shaped bounds, and
// the visible-event bound.
func TestAxenumGuards(t *testing.T) {
	p := mustTest(t, "SB")
	a := &Axenum{}
	for _, model := range []string{"sc", "tso", "pso", "imm", "rc11"} {
		if err := a.Applicable(p, Spec{Model: model}); err != nil {
			t.Errorf("model %s should be applicable: %v", model, err)
		}
	}
	if err := a.Applicable(p, Spec{Model: "relaxed"}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("relaxed: want ErrUnsupported (out-of-thin-air), got %v", err)
	}
	if err := a.Applicable(p, Spec{Model: "no-such-model"}); err == nil {
		t.Error("unknown model: want error")
	}
	boundSpecs := map[string]Spec{
		"max-executions": {Model: "sc", MaxExecutions: 5},
		"max-events":     {Model: "sc", MaxEvents: 10},
		"memory-budget":  {Model: "sc", MemoryBudget: 1 << 20},
		"symmetry":       {Model: "sc", Symmetry: true},
	}
	for name, spec := range boundSpecs {
		if err := a.Applicable(p, spec); !errors.Is(err, ErrUnsupported) {
			t.Errorf("bound %s: want ErrUnsupported, got %v", name, err)
		}
	}
	if err := a.Applicable(bigProgram(t, DefaultAxenumMaxOps), Spec{Model: "sc"}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("oversized program: want ErrUnsupported, got %v", err)
	}
	tight := &Axenum{MaxOps: 1}
	if err := tight.Applicable(p, Spec{Model: "sc"}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("custom op bound: want ErrUnsupported, got %v", err)
	}
}

// TestDFSAnchorIsAlwaysApplicable: the anchor accepts every registered
// model under every bound combination.
func TestDFSAnchorIsAlwaysApplicable(t *testing.T) {
	p := mustTest(t, "SB")
	d := &DFS{}
	spec := Spec{
		Model: "imm", MaxExecutions: 5, MaxEvents: 100, MemoryBudget: 1 << 20,
		Symmetry: true,
	}
	if err := d.Applicable(p, spec); err != nil {
		t.Fatalf("anchor should accept any bounds: %v", err)
	}
	if err := d.Applicable(p, Spec{Model: "no-such-model"}); err == nil {
		t.Fatal("unknown model: want error")
	}
}

func TestByNameRoundTrip(t *testing.T) {
	for _, name := range Names() {
		b, err := ByName(name)
		if name == "portfolio" {
			if err == nil {
				t.Error("portfolio is not a single backend; ByName should refuse it")
			}
			continue
		}
		if err != nil {
			t.Errorf("ByName(%s): %v", name, err)
			continue
		}
		if b.Name() != name {
			t.Errorf("ByName(%s).Name() = %s", name, b.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus): want error")
	}
}

func TestVerdictsAgreeAcrossEngines(t *testing.T) {
	p := mustTest(t, "SB")
	spec := Spec{Model: "tso"}
	var verdicts []*Verdict
	for _, name := range []string{"dfs", "axenum", "operational"} {
		b, _ := ByName(name)
		if err := b.Applicable(p, spec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v, err := b.Run(context.Background(), p, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !v.Exhaustive {
			t.Fatalf("%s: not exhaustive: %+v", name, v)
		}
		verdicts = append(verdicts, v)
	}
	for i := 1; i < len(verdicts); i++ {
		if diff := Diff(verdicts[0], verdicts[i]); diff != "" {
			t.Errorf("dfs vs %s: %s", verdicts[i].Backend, diff)
		}
		if verdicts[i].OutcomeDigest != verdicts[0].OutcomeDigest {
			t.Errorf("digest mismatch: %s=%s dfs=%s",
				verdicts[i].Backend, verdicts[i].OutcomeDigest, verdicts[0].OutcomeDigest)
		}
	}
}

func TestDiff(t *testing.T) {
	base := func() *Verdict {
		return &Verdict{
			Backend: "a", Outcomes: []string{"k1", "k2"},
			OutcomeDigest: Digest([]string{"k1", "k2"}),
			Allowed:       true, Assertion: Pass, Exhaustive: true,
		}
	}
	other := base()
	other.Backend = "b"
	if d := Diff(base(), other); d != "" {
		t.Errorf("identical verdicts should agree, got %q", d)
	}

	// Non-exhaustive verdicts are incomparable.
	trunc := base()
	trunc.Exhaustive = false
	trunc.Outcomes = []string{"k1"}
	trunc.OutcomeDigest = Digest(trunc.Outcomes)
	if d := Diff(base(), trunc); d != "" {
		t.Errorf("non-exhaustive should be incomparable, got %q", d)
	}
	if d := Diff(nil, base()); d != "" {
		t.Errorf("nil should be incomparable, got %q", d)
	}

	// Outcome-set splits name the keys each side claims alone.
	split := base()
	split.Backend = "b"
	split.Outcomes = []string{"k1", "k3"}
	split.OutcomeDigest = Digest(split.Outcomes)
	d := Diff(base(), split)
	if !strings.Contains(d, "k2") || !strings.Contains(d, "k3") {
		t.Errorf("outcome diff should name both sides' exclusive keys: %q", d)
	}

	// Exists-clause split with identical outcome sets.
	exists := base()
	exists.Backend = "b"
	exists.Allowed = false
	if d := Diff(base(), exists); !strings.Contains(d, "exists clause") {
		t.Errorf("want exists-clause diff, got %q", d)
	}

	// Assertion: only a hard Pass-vs-Fail split disagrees; Unknown is
	// compatible with everything.
	fails := base()
	fails.Backend = "b"
	fails.Assertion = Fail
	if d := Diff(base(), fails); !strings.Contains(d, "assertion") {
		t.Errorf("want assertion diff, got %q", d)
	}
	unknown := base()
	unknown.Backend = "b"
	unknown.Assertion = Unknown
	if d := Diff(base(), unknown); d != "" {
		t.Errorf("Unknown assertion should be compatible, got %q", d)
	}
}

func TestDigestDeterministic(t *testing.T) {
	a := Digest([]string{"x", "y"})
	b := Digest([]string{"x", "y"})
	if a != b || len(a) != 16 {
		t.Fatalf("digest unstable or wrong length: %q vs %q", a, b)
	}
	if Digest([]string{"xy"}) == a {
		t.Fatal("digest must separate keys, not concatenate them")
	}
}
