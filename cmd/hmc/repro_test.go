package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmc/internal/core"
)

// TestRunReproArtifactFormats: crash and quarantine artifacts in the
// format hmcd writes — every job field set — replay through -repro, and
// the recorded bounds reach the re-run.
func TestRunReproArtifactFormats(t *testing.T) {
	dir := t.TempDir()
	crash := filepath.Join(dir, "crash-abc-job-000042.json")
	if err := os.WriteFile(crash, []byte(fmt.Sprintf(`{
  "schema": %d,
  "job_id": "job-000042",
  "time": "2026-01-02T03:04:05Z",
  "program": "IRIW",
  "fingerprint": "0123456789abcdef",
  "model": "tso",
  "test": "IRIW",
  "program_dump": "...",
  "max_executions": 2,
  "max_events": 40,
  "memory_budget": 1099511627776,
  "workers": 2,
  "symmetry": true,
  "timeout_ms": 60000,
  "attempts": 2,
  "panic": "synthetic panic for the test",
  "stack": "goroutine 1 [running]:",
  "stats": {"Executions": 1, "Blocked": 0}
}`, core.SchemaVersion)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-repro", crash}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"job job-000042", "model tso", "synthetic panic for the test",
		"NOT REPRODUCED: exploration completed cleanly (2 executions"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("crash repro output missing %q:\n%s", want, out.String())
		}
	}

	quarantine := filepath.Join(dir, "backend-disagreement-abc-job-000043.json")
	verdict := func(b string) string {
		return fmt.Sprintf(`{"backend": %q, "model": "tso", "outcomes": ["x"], "outcome_digest": "d", "allowed": true,
      "assertion": "pass", "exhaustive": true, "executions": 4, "blocked": 0, "states": 9, "elapsed_ns": 1000}`, b)
	}
	if err := os.WriteFile(quarantine, []byte(fmt.Sprintf(`{
  "schema": %d,
  "kind": "backend-disagreement",
  "job_id": "job-000043",
  "time": "2026-01-02T03:04:05Z",
  "program": "SB",
  "fingerprint": "0123456789abcdef",
  "model": "tso",
  "source": "name SB\nT0: W x 1 ; r0 = R y\nT1: W y 1 ; r1 = R x\nexists T0:r0=0 & T1:r1=0\n",
  "program_dump": "...",
  "diff": "allowed-outcome sets differ: synthetic",
  "winner": %s,
  "dissenter": %s,
  "attempts": [{"backend": "dfs", "status": "won", "elapsed_ns": 1000}]
}`, core.SchemaVersion, verdict("dfs"), verdict("operational"))), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-repro", quarantine}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"job job-000043", "model tso", "recorded disagreement: allowed-outcome sets differ: synthetic",
		"backend=dfs", "backend=operational", "NOT REPRODUCED: both backends now agree"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("quarantine repro output missing %q:\n%s", want, out.String())
		}
	}
}
