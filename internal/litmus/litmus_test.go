package litmus

import (
	"reflect"
	"strings"
	"testing"

	"hmc/internal/core"
	"hmc/internal/eg"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// mustCheck explores p under the named model.
func mustCheck(t *testing.T, p *prog.Program, model string) *core.Result {
	t.Helper()
	m, err := memmodel.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Explore(p, core.Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCorpusIntegrity(t *testing.T) {
	seen := map[string]bool{}
	for _, tc := range Corpus() {
		if tc.Name == "" {
			t.Error("corpus entry without a name")
		}
		if seen[tc.Name] {
			t.Errorf("duplicate corpus name %q", tc.Name)
		}
		seen[tc.Name] = true
		if tc.P == nil {
			t.Errorf("%s: nil program", tc.Name)
			continue
		}
		if err := tc.P.Validate(); err != nil {
			t.Errorf("%s: %v", tc.Name, err)
		}
		if tc.P.Exists == nil {
			t.Errorf("%s: no Exists clause", tc.Name)
		}
		for model := range tc.Allowed {
			if _, err := memmodel.ByName(model); err != nil {
				t.Errorf("%s: verdict for unknown model %q", tc.Name, model)
			}
		}
		for model, n := range tc.Executions {
			if _, ok := tc.Allowed[model]; !ok {
				t.Errorf("%s: execution count for model %q without a verdict", tc.Name, model)
			}
			if n <= 0 {
				t.Errorf("%s: nonsensical execution count %d", tc.Name, n)
			}
		}
	}
}

// TestByNameAndNames: every corpus test resolves by name to the same
// program and expectations, and a lookup allocates nothing (the index is
// built once, not per call).
func TestByNameAndNames(t *testing.T) {
	names := Names()
	if len(names) != len(Corpus()) {
		t.Fatalf("Names() has %d entries, corpus %d", len(names), len(Corpus()))
	}
	for i, tc := range Corpus() {
		got, ok := ByName(names[i])
		switch {
		case !ok:
			t.Errorf("ByName(%q) failed", names[i])
		case got.Name != tc.Name || got.P.Fingerprint() != tc.P.Fingerprint():
			t.Errorf("ByName(%q) = %q (fingerprint %.12s), want fingerprint %.12s",
				names[i], got.Name, got.P.Fingerprint(), tc.P.Fingerprint())
		case !reflect.DeepEqual(got.Allowed, tc.Allowed) || !reflect.DeepEqual(got.Executions, tc.Executions):
			t.Errorf("ByName(%q): verdicts %v / %v, want %v / %v", names[i], got.Allowed, got.Executions, tc.Allowed, tc.Executions)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName must fail for unknown tests")
	}
	if n := testing.AllocsPerRun(10, func() { ByName("IRIW") }); n != 0 {
		t.Errorf("ByName allocates %v times per call, want 0", n)
	}
}

func TestVerdictMonotonicity(t *testing.T) {
	// If a stronger model allows an outcome, every weaker one must too.
	chains := [][]string{{"sc", "tso", "pso", "arm", "imm", "relaxed"}, {"sc", "ra", "relaxed"}, {"sc", "rc11", "relaxed"}}
	for _, tc := range Corpus() {
		for _, chain := range chains {
			for i := 0; i+1 < len(chain); i++ {
				lo, okLo := tc.Allowed[chain[i]]
				hi, okHi := tc.Allowed[chain[i+1]]
				if okLo && okHi && lo && !hi {
					t.Errorf("%s: allowed under %s but forbidden under weaker %s",
						tc.Name, chain[i], chain[i+1])
				}
			}
		}
	}
}

const sbSrc = `
# store buffering
name SB
T0: W x 1 ; r0 = R y
T1: W y 1 ; r1 = R x
exists T0:r0=0 & T1:r1=0
`

func TestParseSB(t *testing.T) {
	p, err := Parse(sbSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "SB" {
		t.Errorf("name = %q", p.Name)
	}
	if len(p.Threads) != 2 || p.NumLocs != 2 {
		t.Fatalf("shape: %d threads, %d locs", len(p.Threads), p.NumLocs)
	}
	// The weak-outcome state: both read 0.
	fs := prog.FinalState{Mem: []int64{1, 1}, Regs: [][]int64{{0}, {0}}}
	if !p.Exists(fs) {
		t.Error("exists predicate must hold for both-zero registers")
	}
	fs.Regs[0][0] = 1
	if p.Exists(fs) {
		t.Error("exists predicate must fail when a register is 1")
	}
}

func TestParseAllForms(t *testing.T) {
	src := `
name forms
T0: W x 5 ; F full ; F lw ; F ld
T1: r = R x ; v,ok = CAS y 0 3 ; a = FADD x 2 ; b = XCHG y 7
exists T1:ok=1 & x=5
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Threads[0]); got != 4 {
		t.Errorf("T0 has %d instructions, want 4", got)
	}
	if got := len(p.Threads[1]); got != 4 {
		t.Errorf("T1 has %d instructions, want 4", got)
	}
	kinds := []prog.InstrOp{prog.IStore, prog.IFence, prog.IFence, prog.IFence}
	for i, in := range p.Threads[0] {
		if in.Op != kinds[i] {
			t.Errorf("T0[%d] op = %d, want %d", i, in.Op, kinds[i])
		}
	}
	if p.Threads[0][1].Fence != eg.FenceFull || p.Threads[0][3].Fence != eg.FenceLD {
		t.Error("fence kinds mangled")
	}
}

func TestParseMultiLineThreads(t *testing.T) {
	src := `
T0: W x 1
T0: W y 1
T1: r0 = R y
T1: r1 = R x
exists T1:r0=1 & T1:r1=0
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Threads[0]) != 2 || len(p.Threads[1]) != 2 {
		t.Fatalf("thread continuation broken: %d/%d", len(p.Threads[0]), len(p.Threads[1]))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, wantErr string }{
		{"T0: Q x 1", "unrecognised"},
		{"T1: W x 1", "out of order"},
		{"T0: W x one", "bad store value"},
		{"T0: F mega", "bad fence kind"},
		{"T0: W x 1\nexists T0:r9=1", "unknown register"},
		{"T0: W x 1\nexists T5:r0=1", "bad thread"},
		{"T0: W x 1\nexists x", "bad atom"},
		{"T0: r0 = AWAIT x", "want '<reg> = AWAIT <loc> <val>'"},
		{"T0: r0 = AWAIT x one", "bad integer"},
		{"bogus line", "unrecognised line"},
		{"# only a comment", "no threads"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("Parse(%q) error = %v, want containing %q", c.src, err, c.wantErr)
		}
	}
}

func TestParsedMatchesCorpusSB(t *testing.T) {
	// The parsed SB must behave identically to the built-in corpus SB:
	// same thread shapes and the same exists semantics.
	parsed, err := Parse(sbSrc)
	if err != nil {
		t.Fatal(err)
	}
	built, _ := ByName("SB")
	if len(parsed.Threads) != len(built.P.Threads) {
		t.Fatal("thread count mismatch")
	}
	for ti := range parsed.Threads {
		if len(parsed.Threads[ti]) != len(built.P.Threads[ti]) {
			t.Errorf("T%d length mismatch", ti)
		}
	}
}

func TestParseModes(t *testing.T) {
	src := `
name MP+rel+acq
T0: W x 1 ; W.rel y 1
T1: r0 = R.acq y ; r1 = R x
exists T1:r0=1 & T1:r1=0
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Threads[0][1].Mode; got != eg.ModeRel {
		t.Errorf("store mode = %v, want rel", got)
	}
	if got := p.Threads[1][0].Mode; got != eg.ModeAcq {
		t.Errorf("load mode = %v, want acq", got)
	}
	if got := p.Threads[1][1].Mode; got != eg.ModePlain {
		t.Errorf("plain load mode = %v", got)
	}
	res := mustCheck(t, p, "rc11")
	if res.ExistsCount != 0 {
		t.Error("MP+rel+acq must be forbidden under rc11")
	}
	hw := mustCheck(t, p, "imm")
	if hw.ExistsCount == 0 {
		t.Error("annotations must mean nothing to imm")
	}
}

func TestParseModeErrors(t *testing.T) {
	for _, src := range []string{
		"T0: W.mega x 1",
		"T0: r = R.huge x",
		"T0: Wx x 1",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) must fail", src)
		}
	}
}

func TestParseRMWModes(t *testing.T) {
	src := `
T0: a = FADD.rel x 1 ; b = XCHG.acqrel x 2 ; c,ok = CAS.sc x 0 1
exists x=1
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []eg.Mode{eg.ModeRel, eg.ModeAcqRel, eg.ModeSC}
	for i, m := range want {
		if got := p.Threads[0][i].Mode; got != m {
			t.Errorf("instr %d mode = %v, want %v", i, got, m)
		}
	}
}

// TestParseAwait checks the AWAIT spin instruction: the handshake below
// has exactly one complete execution (the await observed the store) plus
// one blocked execution (it read the stale init value).
func TestParseAwait(t *testing.T) {
	src := `
name handshake
T0: W x 1
T1: r0 = AWAIT x 1 ; r1 = R y
exists T1:r0=1
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := memmodel.ByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Explore(p, core.Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions != 1 || res.Blocked != 1 || res.ExistsCount != 1 {
		t.Errorf("executions=%d blocked=%d exists=%d, want 1/1/1",
			res.Executions, res.Blocked, res.ExistsCount)
	}
	// A mode suffix parses too and the deadlock shape is classified.
	dead, err := Parse("T0: r0 = AWAIT.acq x 2\nT1: W x 1\n")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.CheckLiveness(dead, m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Live() {
		t.Error("awaiting a never-written value must be a liveness violation")
	}
}

// TestResolve: exactly one of source and test names the program; every
// other combination is an error that says what went wrong.
func TestResolve(t *testing.T) {
	sb, _ := ByName("SB")
	p, err := Resolve("", "SB")
	if err != nil || p.Fingerprint() != sb.P.Fingerprint() {
		t.Fatalf("corpus test: %v, %v", p, err)
	}
	p, err = Resolve("name mine\nT0: W x 1\n", "")
	if err != nil || p.Name != "mine" {
		t.Fatalf("source: %v, %v", p, err)
	}
	for _, tc := range []struct{ source, test, want string }{
		{"T0: W x 1", "SB", "not both"},
		{"T0: FROB x 1", "", "parse:"},
		{"", "no-such-test", `unknown corpus test "no-such-test"`},
		{"", "", "need a litmus"},
	} {
		if _, err := Resolve(tc.source, tc.test); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Resolve(%q, %q) = %v, want an error containing %q", tc.source, tc.test, err, tc.want)
		}
	}
}
