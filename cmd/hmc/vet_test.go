package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVetBuiltinTest(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"vet", "-test", "SB"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"SB:t0:", "symmetry-candidate", "racy-pair", "3 findings"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestVetCleanFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mp.lit")
	src := `
name MP-cli
T0: W.rel x 1 ; W.rel y 1
T1: r0 = R.acq y ; r1 = R.acq x
exists T1:r0=1 & T1:r1=0
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"vet", "-foot", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, path+": clean") {
		t.Errorf("expected a clean verdict labelled with the file path:\n%s", got)
	}
	if !strings.Contains(got, "footprint:") || !strings.Contains(got, "single-writer") {
		t.Errorf("-foot output missing footprint summary:\n%s", got)
	}
}

func TestVetParseFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.lit")
	if err := os.WriteFile(path, []byte("T0: QUUX x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"vet", path}, &out); err == nil {
		t.Fatalf("vet of an unparsable file succeeded:\n%s", out.String())
	}
}

func TestVetAllModelsUnion(t *testing.T) {
	// An LW fence is a no-op under tso but not pso: -model all must show the
	// model-specific finding for tso only.
	dir := t.TempDir()
	path := filepath.Join(dir, "f.lit")
	src := `
name fenced
T0: W x 1 ; F lw ; W y 1
T1: r0 = R y ; r1 = R x
exists T1:r0=1 & T1:r1=0
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"vet", "-model", "all", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "under tso") {
		t.Errorf("-model all output missing the tso useless-fence finding:\n%s", got)
	}
	if strings.Contains(got, "under pso") {
		t.Errorf("-model all output flags the LW fence under pso, where it is effective:\n%s", got)
	}
}

func TestVetDepsOutput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"vet", "-deps", "-test", "LB+datas"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "deps addr=") {
		t.Errorf("-deps output missing dependency sets:\n%s", out.String())
	}
}

func TestRunStaticAndCheckDeps(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-model", "sc", "-static", "-checkdeps", "-stats", "-test", "MP"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"static-pruned:", "checkdeps: ok"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}
