package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBuiltinTest(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-model", "tso", "-test", "SB"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"SB", "model=tso", "executions=4", "ALLOWED"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunAllModels(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-model", "all", "-test", "LB"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(out.String(), "\n")
	if lines != 8 {
		t.Errorf("expected one line per model (8), got %d:\n%s", lines, out.String())
	}
	if !strings.Contains(out.String(), "model=arm") {
		t.Error("arm model missing from -model all output")
	}
}

func TestRunLitmusFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mp.lit")
	src := `
name MP
T0: W x 1 ; W y 1
T1: r0 = R y ; r1 = R x
exists T1:r0=1 & T1:r1=0
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-model", "imm", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ALLOWED") {
		t.Errorf("MP under imm must be allowed:\n%s", out.String())
	}
}

func TestRunDotWitness(t *testing.T) {
	dir := t.TempDir()
	dot := filepath.Join(dir, "w.dot")
	var out strings.Builder
	if err := run([]string{"-model", "imm", "-test", "MP", "-dot", dot}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph execution") {
		t.Error("dot file missing digraph header")
	}
	if !strings.Contains(out.String(), "weak outcome: true") {
		t.Errorf("witness note missing:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-test", "not-a-test"},
		{"-model", "not-a-model", "-test", "SB"},
		{},                           // no file
		{"/definitely/not/there"},    // unreadable file
		{"-test", "SB", "extra.lit"}, // -test takes precedence; extra args ignored
	}
	for i, args := range cases[:4] {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("case %d (%v): expected an error", i, args)
		}
	}
}

func TestRunMaxTruncates(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-model", "relaxed", "-test", "IRIW", "-max", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "executions=5") || !strings.Contains(out.String(), "(truncated: max-executions)") {
		t.Errorf("truncation not reported:\n%s", out.String())
	}
}

func TestRunMaxEventsTruncates(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-model", "sc", "-test", "IRIW", "-max-events", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(truncated: max-events)") {
		t.Errorf("event-cap truncation not reported:\n%s", out.String())
	}
}

func TestRunRepro(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.json")
	artifact := `{
  "schema": 1,
  "job_id": "job-1",
  "program": "MP",
  "fingerprint": "abc",
  "model": "imm",
  "source": "name MP\nT0: W x 1 ; W y 1\nT1: r0 = R y ; r1 = R x\nexists T1:r0=1 & T1:r1=0\n",
  "program_dump": "...",
  "attempts": 1,
  "panic": "synthetic panic for the test",
  "stack": "goroutine 1 [running]:"
}`
	if err := os.WriteFile(path, []byte(artifact), 0o644); err != nil {
		t.Fatal(err)
	}
	// MP is a healthy program: the replay completes cleanly and says so.
	var out strings.Builder
	if err := run([]string{"-repro", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"synthetic panic for the test", "model imm", "NOT REPRODUCED"} {
		if !strings.Contains(got, want) {
			t.Errorf("repro output missing %q:\n%s", want, got)
		}
	}

	// An artifact without source or test name cannot be replayed.
	bare := filepath.Join(dir, "bare.json")
	if err := os.WriteFile(bare, []byte(`{"schema":1,"job_id":"j","model":"sc","program_dump":"T0: ???","panic":"p"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-repro", bare}, &out); err == nil {
		t.Error("non-replayable artifact must error")
	}
	// A missing file errors too.
	if err := run([]string{"-repro", filepath.Join(dir, "nope.json")}, &out); err == nil {
		t.Error("missing artifact must error")
	}
	// An artifact from another engine schema is refused: replaying it
	// would exercise different exploration semantics than the crash.
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(`{"schema":999,"job_id":"j","model":"imm","test":"MP","panic":"p"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-repro", old}, &out); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("old-schema artifact: err = %v, want schema rejection", err)
	}
}

func TestRunTimeoutInterrupts(t *testing.T) {
	// A 1ns budget is spent before exploration starts: the run must
	// report INTERRUPTED with its (empty) partial counts, not a verdict.
	var out strings.Builder
	if err := run([]string{"-model", "sc", "-test", "IRIW", "-timeout", "1ns"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "INTERRUPTED (partial: 0 executions") {
		t.Errorf("interruption not reported:\n%s", got)
	}
	if strings.Contains(got, "forbidden") {
		t.Errorf("an interrupted run must not claim a forbidden verdict:\n%s", got)
	}

	// A generous budget must leave the normal output untouched.
	out.Reset()
	if err := run([]string{"-model", "sc", "-test", "SB", "-timeout", "1m"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "executions=3") || strings.Contains(out.String(), "INTERRUPTED") {
		t.Errorf("in-budget run must report normally:\n%s", out.String())
	}
}

func TestRunTimeoutInterruptsAnalyses(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-model", "tso", "-test", "SB", "-timeout", "1ns", "-robust", "-live", "-races"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"robustness against tso INTERRUPTED",
		"liveness under tso INTERRUPTED",
		"race check INTERRUPTED",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

func TestRunVerbosePrintsExecutions(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-model", "sc", "-test", "SB", "-v"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "--- execution") != 3 {
		t.Errorf("want 3 execution dumps:\n%s", out.String())
	}
}

func TestRunParallelWorkers(t *testing.T) {
	var seq, par strings.Builder
	if err := run([]string{"-model", "arm", "-test", "IRIW"}, &seq); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-model", "arm", "-test", "IRIW", "-workers", "4"}, &par); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("parallel output differs from sequential:\n%s\nvs\n%s", seq.String(), par.String())
	}
}

func TestRunLiveness(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-model", "sc", "-test", "MP", "-live"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "live under sc") {
		t.Errorf("MP is live, output:\n%s", out.String())
	}
}

func TestRunSymmetry(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-model", "sc", "-test", "inc(2)", "-symm"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "executions=1") {
		t.Errorf("inc(2) has one orbit under -symm:\n%s", out.String())
	}
}

func TestRunEstimate(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-model", "tso", "-test", "SB", "-estimate", "200"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "estimate: ≈") {
		t.Errorf("estimate not reported:\n%s", out.String())
	}
	if strings.Contains(out.String(), "weak outcome") {
		t.Errorf("-estimate must skip exploration:\n%s", out.String())
	}
}

func TestRunStats(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-model", "imm", "-test", "LB", "-stats"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "states=") || !strings.Contains(out.String(), "revisits=") ||
		!strings.Contains(out.String(), "sink-extensions=") {
		t.Errorf("stats not printed:\n%s", out.String())
	}
}

// checkpointLeg runs the CLI once and returns its output.
func checkpointLeg(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String()
}

// verdictLine extracts the verdict line (the one starting with the test
// name) so resumed and straight outputs can be compared exactly.
func verdictLine(t *testing.T, output, name string) string {
	t.Helper()
	for _, line := range strings.Split(output, "\n") {
		if strings.HasPrefix(line, name) {
			return line
		}
	}
	t.Fatalf("no verdict line for %s in:\n%s", name, output)
	return ""
}

// TestRunCheckpointResume: an interrupted run writes its frontier to the
// -checkpoint file; rerunning with the same -checkpoint completes it and
// prints exactly the verdict line of an uninterrupted run, then retires
// the spent checkpoint.
func TestRunCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	// Leg 1: a 1ns timeout interrupts IRIW (relaxed has far too many
	// executions to finish inside a nanosecond) and checkpoints.
	first := checkpointLeg(t, "-model", "relaxed", "-test", "IRIW", "-timeout", "1ns", "-checkpoint", ckpt)
	if !strings.Contains(first, "INTERRUPTED") || !strings.Contains(first, "checkpoint written to "+ckpt) {
		t.Fatalf("interrupted leg:\n%s", first)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}

	// Leg 2: resume to completion (no timeout).
	resumed := checkpointLeg(t, "-model", "relaxed", "-test", "IRIW", "-checkpoint", ckpt)
	if !strings.Contains(resumed, "resuming from "+ckpt) {
		t.Fatalf("resume not announced:\n%s", resumed)
	}
	if !strings.Contains(resumed, "checkpoint "+ckpt+" removed") {
		t.Fatalf("spent checkpoint not retired:\n%s", resumed)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file still present after completion: %v", err)
	}

	// The resumed verdict line is byte-identical to a straight run's.
	straight := checkpointLeg(t, "-model", "relaxed", "-test", "IRIW")
	if got, want := verdictLine(t, resumed, "IRIW"), verdictLine(t, straight, "IRIW"); got != want {
		t.Fatalf("resumed verdict diverges:\nresumed:  %s\nstraight: %s", got, want)
	}
}

// TestRunCheckpointAtCap: a -max-truncated run checkpoints; resuming with
// the same bounds reports the identical (still truncated) verdict.
func TestRunCheckpointAtCap(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "cap.ckpt")
	first := checkpointLeg(t, "-model", "relaxed", "-test", "IRIW", "-max", "5", "-checkpoint", ckpt)
	if !strings.Contains(first, "(truncated: max-executions)") || !strings.Contains(first, "checkpoint written") {
		t.Fatalf("capped leg:\n%s", first)
	}
	resumed := checkpointLeg(t, "-model", "relaxed", "-test", "IRIW", "-max", "5", "-checkpoint", ckpt)
	if got, want := verdictLine(t, resumed, "IRIW"), verdictLine(t, first, "IRIW"); got != want {
		t.Fatalf("resumed capped verdict diverges:\nresumed:  %s\nfirst:    %s", got, want)
	}
}

// TestRunResumeMismatch: a checkpoint resumed against a different test or
// model is refused, not silently merged, and the error names the file.
func TestRunResumeMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sb.ckpt")
	checkpointLeg(t, "-model", "relaxed", "-test", "IRIW", "-max", "5", "-checkpoint", ckpt)
	var out strings.Builder
	err := run([]string{"-model", "relaxed", "-test", "LB", "-checkpoint", ckpt}, &out)
	if err == nil || !strings.Contains(err.Error(), "checkpoint") || !strings.Contains(err.Error(), ckpt) {
		t.Fatalf("wrong-program resume: err=%v", err)
	}
	err = run([]string{"-model", "sc", "-test", "IRIW", "-max", "5", "-checkpoint", ckpt}, &out)
	if err == nil || !strings.Contains(err.Error(), "checkpoint") || !strings.Contains(err.Error(), ckpt) {
		t.Fatalf("wrong-model resume: err=%v", err)
	}
	// A refused checkpoint is never announced as a resume.
	if strings.Contains(out.String(), "resuming from") {
		t.Fatalf("mismatched checkpoint announced as a resume:\n%s", out.String())
	}
}

// TestRunCheckpointRejectsAll: -checkpoint is single-model.
func TestRunCheckpointRejectsAll(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-model", "all", "-test", "SB", "-checkpoint", filepath.Join(t.TempDir(), "x.ckpt")}, &out)
	if err == nil || !strings.Contains(err.Error(), "-model all") {
		t.Fatalf("err = %v, want single-model rejection", err)
	}
}
