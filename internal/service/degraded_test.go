package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hmc/internal/backend"
	"hmc/internal/core"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// faults injects disk errors into the files the store opens: write
// ordinals (1-based, counted across every wrapped file) for which
// failWrite reports true get ENOSPC and write nothing, and while
// failTempSync is set every temp-file fsync gets EIO.
type faults struct {
	mu           sync.Mutex
	writes       int
	failWrite    func(n int) bool
	failTempSync bool
}

func (fs *faults) wrap(f durableFile) durableFile { return &faultyFile{f, fs} }

type faultyFile struct {
	durableFile
	fs *faults
}

func (f *faultyFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.fs.writes++
	fail := f.fs.failWrite != nil && f.fs.failWrite(f.fs.writes)
	f.fs.mu.Unlock()
	if fail {
		return 0, syscall.ENOSPC
	}
	return f.durableFile.Write(p)
}

func (f *faultyFile) Sync() error {
	f.fs.mu.Lock()
	fail := f.fs.failTempSync && strings.HasSuffix(f.Name(), tmpSuffix)
	f.fs.mu.Unlock()
	if fail {
		return syscall.EIO
	}
	return f.durableFile.Sync()
}

func (fs *faults) setTempSync(fail bool) {
	fs.mu.Lock()
	fs.failTempSync = fail
	fs.mu.Unlock()
}

// TestJournalDegradedRecovery exercises the store's degraded mode at the
// file boundary: an injected ENOSPC on one write flips the store degraded
// (counted, classified), the job still counts as live in memory, and the
// next clean write restores durability.
func TestJournalDegradedRecovery(t *testing.T) {
	fs := &faults{failWrite: func(n int) bool { return n == 1 }}
	errs := 0
	st, _, _, err := openStore(t.TempDir(), journalHooks{
		Wrap:         fs.wrap,
		OnWriteError: func(error) { errs++ },
	})
	if err != nil {
		t.Fatal(err)
	}

	st.submit("job-000001", JobSpec{Test: "SB", Spec: backend.Spec{Model: "sc"}})
	if degraded, why := st.degradedState(); !degraded || why != "disk full (ENOSPC)" {
		t.Fatalf("after injected ENOSPC: degraded=%v why=%q, want true / disk full (ENOSPC)", degraded, why)
	}
	if errs != 1 {
		t.Fatalf("OnWriteError fired %d times, want 1", errs)
	}
	if len(st.live) != 1 {
		t.Fatal("the failed write must still leave the job live in memory")
	}

	st.submit("job-000002", JobSpec{Test: "MP", Spec: backend.Spec{Model: "sc"}})
	if degraded, _ := st.degradedState(); degraded {
		t.Fatal("a clean write must clear the degraded state")
	}
	if errs != 1 {
		t.Fatalf("OnWriteError fired %d times after recovery, want still 1", errs)
	}
}

// TestReadyzReportsJournalDegraded: a store stuck degraded (every write
// failing) keeps the service serving — /readyz stays 200 — but the body
// and the metrics say so.
func TestReadyzReportsJournalDegraded(t *testing.T) {
	fs := &faults{failWrite: func(int) bool { return true }}
	s, err := newService(Config{Workers: 1, JournalDir: t.TempDir()}, journalHooks{Wrap: fs.wrap})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	v, err := s.Submit(SubmitRequest{Program: mustTest(t, "SB"), JobSpec: JobSpec{Test: "SB", Spec: backend.Spec{Model: "sc"}}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("/readyz = %d while journal-degraded, want 200 (still serving)", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"degraded"`) || !strings.Contains(body, "ENOSPC") {
		t.Errorf("/readyz body does not report the degraded journal: %s", body)
	}
	if s.Metrics().JournalWriteErrors.Load() == 0 {
		t.Error("hmcd_journal_write_errors_total = 0, want the failed writes counted")
	}
}

// TestJournalInterruptedWriteKeepsPrevious: a write whose fsync fails
// leaves the previous spec, checkpoint, verdicts.json or crash artifact
// intact and no temp file behind, and a temp file a crash left between
// create and rename is removed at the next start.
func TestJournalInterruptedWriteKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	fs := &faults{}
	st, _, _, err := openStore(dir, journalHooks{Wrap: fs.wrap})
	if err != nil {
		t.Fatal(err)
	}
	var cps []*core.Checkpoint
	_, err = core.Explore(mustTest(t, "IRIW"), core.Options{
		Model:      memmodel.TSO{},
		Checkpoint: &core.CheckpointOptions{EveryExecs: 1, Sink: func(c *core.Checkpoint) { cps = append(cps, c) }},
	})
	if err != nil || len(cps) < 2 {
		t.Fatalf("checkpointed run: err %v, %d checkpoints", err, len(cps))
	}
	read := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	st.submit("job-000001", JobSpec{Test: "IRIW", Spec: backend.Spec{Model: "tso"}})
	if !st.checkpoint("job-000001", cps[0]) {
		t.Fatal("first checkpoint not written")
	}
	st.writeFile(verdictFile, []byte(`{"schema":1,"verdicts":[]}`))
	spec, ckpt, verdicts := read("job-000001.json"), read("job-000001.ckpt"), read(verdictFile)

	fs.setTempSync(true)
	if st.checkpoint("job-000001", cps[1]) {
		t.Fatal("checkpoint reported written although its fsync failed")
	}
	if degraded, why := st.degradedState(); !degraded || why != "fsync error" {
		t.Fatalf("degraded=%v why=%q, want true / fsync error", degraded, why)
	}
	st.submit("job-000002", JobSpec{Test: "SB", Spec: backend.Spec{Model: "sc"}})
	st.writeFile(verdictFile, []byte(`{"schema":1,"verdicts":[{"key":"new"}]}`))
	fs.setTempSync(false)

	if !bytes.Equal(read("job-000001.json"), spec) || !bytes.Equal(read("job-000001.ckpt"), ckpt) ||
		!bytes.Equal(read(verdictFile), verdicts) {
		t.Fatal("a failed write changed the previous file")
	}
	if _, err := os.Stat(filepath.Join(dir, "job-000002.json")); !os.IsNotExist(err) {
		t.Fatalf("spec whose fsync failed is on disk (stat err %v)", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix)); len(tmps) != 0 {
		t.Fatalf("failed writes left temp files: %v", tmps)
	}

	// A crash artifact: the failed one never appears, the earlier one
	// still loads, and no temp file counts toward the bound.
	crashDir := filepath.Join(dir, "crashes")
	cs := &crashStore{dir: crashDir, max: 4, wrap: fs.wrap}
	first := &CrashArtifact{Schema: core.SchemaVersion, JobID: "job-000001", Fingerprint: "aaaa", Time: time.Now().UTC()}
	path, err := cs.write(first)
	if err != nil {
		t.Fatal(err)
	}
	fs.setTempSync(true)
	if _, err := cs.write(&CrashArtifact{Schema: core.SchemaVersion, JobID: "job-000002", Fingerprint: "bbbb"}); err == nil {
		t.Fatal("crash artifact write succeeded although its fsync failed")
	}
	fs.setTempSync(false)
	if names := dirNames(t, crashDir); len(names) != 1 || filepath.Join(crashDir, names[0]) != path {
		t.Fatalf("crash dir holds %q, want only %s", names, path)
	}
	if a, err := LoadCrashArtifact(path); err != nil || a.JobID != "job-000001" {
		t.Fatalf("earlier artifact does not load: %v", err)
	}

	// A crash between create and rename leaves a temp file; the next start
	// removes it and resumes from the last checkpoint that landed.
	if err := os.WriteFile(filepath.Join(dir, "job-000001.ckpt.42"+tmpSuffix), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, jobs, stats, err := openStore(dir, journalHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.skipped != 1 || stats.liveJobs != 1 || !bytes.Equal(jobs[0].checkpoint, ckpt) {
		t.Fatalf("reopen: stats %+v, want 1 live job with its last checkpoint and 1 temp file skipped", stats)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix)); len(tmps) != 0 {
		t.Fatalf("temp files survive a restart: %v", tmps)
	}
}

func mustTest(t *testing.T, name string) *prog.Program {
	t.Helper()
	tc, ok := litmus.ByName(name)
	if !ok {
		t.Fatalf("unknown corpus test %q", name)
	}
	return tc.P
}
