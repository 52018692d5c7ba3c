package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunProgressTicker: -progress prints ticker lines to the progress
// writer (stderr in production) while the verdict on stdout stays intact.
func TestRunProgressTicker(t *testing.T) {
	var ticks strings.Builder
	old := progressOut
	progressOut = &ticks
	defer func() { progressOut = old }()

	// A store storm (11550 sc interleavings) spans many 1ms cadences; a
	// corpus litmus test would finish before the first tick.
	dir := t.TempDir()
	path := filepath.Join(dir, "mw.lit")
	src := "name many-writes\n" +
		"T0: W x 1 ; W x 2 ; W x 3 ; W x 4\n" +
		"T1: W x 11 ; W x 12 ; W x 13 ; W x 14\n" +
		"T2: W x 21 ; W x 22 ; W x 23\n" +
		"exists x=4\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-model", "sc", "-progress", "1ms", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "weak outcome") {
		t.Errorf("verdict line missing from stdout:\n%s", out.String())
	}
	if strings.Contains(out.String(), "progress:") {
		t.Error("ticker lines leaked onto stdout")
	}
	got := ticks.String()
	if n := strings.Count(got, "progress:"); n < 1 {
		t.Errorf("no ticker lines on the progress writer:\n%s", got)
	}
	for _, want := range []string{"execs=", "wave=", "states="} {
		if !strings.Contains(got, want) {
			t.Errorf("ticker missing %q:\n%s", want, got)
		}
	}
}

// TestRunTraceFile: -trace writes parseable JSONL whose snapshot/wave
// events exist, and stdout reports the event count.
func TestRunTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	var out strings.Builder
	if err := run([]string{"-model", "tso", "-test", "SB", "-trace", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trace written to "+path) {
		t.Errorf("trace report missing:\n%s", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kinds := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line is not JSON: %v\n%s", err, sc.Text())
		}
		kinds[ev.Kind]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// SB under tso takes backward revisits; the trace must show them tried
	// and taken. (Wave events appear only when a pause is served —
	// progress or checkpointing — not in a plain run.)
	if kinds["revisit-tried"] == 0 || kinds["revisit-taken"] == 0 {
		t.Errorf("no revisit events in trace: %v", kinds)
	}
}
