package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hmc/internal/backend"
	"hmc/internal/core"
	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/prog"
)

// corruptProgram builds a valid-looking program whose second thread hits an
// unknown instruction opcode mid-exploration — Validate passes (it only
// checks branch targets and register bounds) but the interpreter panics.
// The nonce lands in a store constant so each call yields a distinct
// fingerprint.
func corruptProgram(t *testing.T, nonce int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("corrupted")
	x := b.Loc("x")
	t0 := b.Thread()
	t0.Store(x, prog.Const(nonce))
	t1 := b.Thread()
	t1.Load(x)
	t1.Store(x, prog.Const(2))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p.Threads[1][1].Op = prog.InstrOp(200)
	return p
}

// TestEngineCrashIsolated is the acceptance test for fault containment: a
// job whose program crashes the engine fails alone — with structured
// diagnostics and a replayable crash artifact — while a concurrent healthy
// job on the same service completes normally.
func TestEngineCrashIsolated(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, Config{Workers: 2, CrashDir: dir})
	defer s.Shutdown(context.Background())

	bad := corruptProgram(t, 1)
	mp, _ := litmus.ByName("MP")

	badView, err := s.Submit(SubmitRequest{Program: bad, JobSpec: JobSpec{Test: "MP", Spec: backend.Spec{Model: "tso"}}})
	if err != nil {
		t.Fatal(err)
	}
	goodView, err := s.Submit(SubmitRequest{Program: mp.P, JobSpec: JobSpec{Spec: backend.Spec{Model: "tso"}}})
	if err != nil {
		t.Fatal(err)
	}

	good := waitState(t, s, goodView.ID)
	if good.State != StateDone || good.Result == nil {
		t.Fatalf("healthy job must complete despite a concurrent crash: %+v", good)
	}

	failed := waitState(t, s, badView.ID)
	if failed.State != StateFailed {
		t.Fatalf("corrupted job state = %s, want failed", failed.State)
	}
	ee := failed.EngineError
	if ee == nil {
		t.Fatalf("failed job carries no EngineError (err %q)", failed.Err)
	}
	if ee.Fingerprint != bad.Fingerprint() || ee.Model != "tso" || ee.PanicValue == nil {
		t.Errorf("EngineError diagnostics incomplete: %+v", ee)
	}
	if !strings.Contains(ee.Stack, "interp") {
		t.Errorf("stack does not reach the interpreter:\n%s", ee.Stack)
	}

	// Exactly one artifact, loadable, pointing back at the crash.
	if failed.CrashArtifact == "" {
		t.Fatal("failed job has no crash artifact path")
	}
	files, err := filepath.Glob(filepath.Join(dir, "crash-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("crash dir has %d artifacts (err %v), want exactly 1", len(files), err)
	}
	art, err := LoadCrashArtifact(failed.CrashArtifact)
	if err != nil {
		t.Fatal(err)
	}
	if art.JobID != failed.ID || art.Fingerprint != bad.Fingerprint() || art.Model != "tso" {
		t.Errorf("artifact does not describe the crashed job: %+v", art)
	}
	if art.Test != "MP" {
		t.Errorf("artifact lost the submission's Test name: %q", art.Test)
	}
	if _, err := art.BuildProgram(); err != nil {
		t.Errorf("artifact with a Test name must be replayable: %v", err)
	}

	m := s.Metrics()
	if m.JobsFailed.Load() != 1 || m.EngineErrors.Load() != 1 || m.CrashArtifacts.Load() != 1 {
		t.Errorf("metrics failed/engine/artifacts = %d/%d/%d, want 1/1/1",
			m.JobsFailed.Load(), m.EngineErrors.Load(), m.CrashArtifacts.Load())
	}
}

func TestEngineErrorNeverCached(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, CrashDir: t.TempDir(), BreakerThreshold: -1})
	defer s.Shutdown(context.Background())

	bad := corruptProgram(t, 2)
	first, err := s.Submit(SubmitRequest{Program: bad, JobSpec: JobSpec{Spec: backend.Spec{Model: "sc"}}})
	if err != nil {
		t.Fatal(err)
	}
	if waitState(t, s, first.ID).State != StateFailed {
		t.Fatal("corrupted job must fail")
	}
	second, err := s.Submit(SubmitRequest{Program: bad, JobSpec: JobSpec{Spec: backend.Spec{Model: "sc"}}})
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHit {
		t.Fatal("a crashed job must never seed the verdict cache")
	}
	waitState(t, s, second.ID)
}

func TestCrashDirBounded(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, Config{Workers: 1, CrashDir: dir, MaxCrashArtifacts: 3, BreakerThreshold: -1})
	defer s.Shutdown(context.Background())

	for i := int64(0); i < 6; i++ {
		v, err := s.Submit(SubmitRequest{Program: corruptProgram(t, 10+i), JobSpec: JobSpec{Spec: backend.Spec{Model: "sc"}}})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, v.ID)
	}
	files, err := filepath.Glob(filepath.Join(dir, "crash-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("crash dir holds %d artifacts after 6 crashes, want 3 (oldest evicted)", len(files))
	}
	if got := s.CrashArtifacts(); got != 3 {
		t.Errorf("CrashArtifacts() = %d, want 3", got)
	}
	if total := s.Metrics().CrashArtifacts.Load(); total != 6 {
		t.Errorf("hmcd_crash_artifacts_total = %d, want 6 (counter counts writes, not residents)", total)
	}
}

func TestCrashCaptureDisabled(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, CrashDir: t.TempDir(), MaxCrashArtifacts: -1})
	defer s.Shutdown(context.Background())

	v, err := s.Submit(SubmitRequest{Program: corruptProgram(t, 3), JobSpec: JobSpec{Spec: backend.Spec{Model: "sc"}}})
	if err != nil {
		t.Fatal(err)
	}
	v = waitState(t, s, v.ID)
	if v.State != StateFailed || v.EngineError == nil {
		t.Fatalf("job must still fail with diagnostics: %+v", v)
	}
	if v.CrashArtifact != "" {
		t.Errorf("capture disabled but artifact written: %s", v.CrashArtifact)
	}
}

func TestCircuitBreaker(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, CrashDir: t.TempDir(), BreakerThreshold: 2})
	defer s.Shutdown(context.Background())

	bad := corruptProgram(t, 4)
	for i := 0; i < 2; i++ {
		v, err := s.Submit(SubmitRequest{Program: bad, JobSpec: JobSpec{Spec: backend.Spec{Model: "sc"}}})
		if err != nil {
			t.Fatalf("submit %d before the breaker trips: %v", i, err)
		}
		waitState(t, s, v.ID)
	}
	if _, err := s.Submit(SubmitRequest{Program: bad, JobSpec: JobSpec{Spec: backend.Spec{Model: "sc"}}}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("third submission of a twice-crashed program: err = %v, want ErrCircuitOpen", err)
	}
	// The breaker is per-fingerprint: other programs sail through.
	other := corruptProgram(t, 5)
	v, err := s.Submit(SubmitRequest{Program: other, JobSpec: JobSpec{Spec: backend.Spec{Model: "sc"}}})
	if err != nil {
		t.Fatalf("distinct fingerprint must not be rejected: %v", err)
	}
	waitState(t, s, v.ID)
	mp, _ := litmus.ByName("MP")
	if _, err := s.Submit(SubmitRequest{Program: mp.P, JobSpec: JobSpec{Spec: backend.Spec{Model: "sc"}}}); err != nil {
		t.Fatalf("healthy program must not be rejected: %v", err)
	}
	if got := s.Metrics().BreakerRejected.Load(); got != 1 {
		t.Errorf("hmcd_breaker_rejected_total = %d, want 1", got)
	}
}

func TestBreakerCooldownResets(t *testing.T) {
	b := newBreaker(2, 10*time.Millisecond)
	now := time.Now()
	b.record("fp", now)
	b.record("fp", now)
	if b.allow("fp", now) {
		t.Fatal("breaker must be open after threshold crashes")
	}
	if !b.allow("fp", now.Add(11*time.Millisecond)) {
		t.Fatal("breaker must reset after cooldown")
	}
}

// TestBreakerHalfOpenCloses walks the half-open happy path: open →
// cooldown → exactly one probe admitted → clean run → closed, with the
// crash history forgotten.
func TestBreakerHalfOpenCloses(t *testing.T) {
	b := newBreaker(2, 10*time.Millisecond)
	now := time.Now()
	b.record("fp", now)
	b.record("fp", now)
	if b.allow("fp", now) {
		t.Fatal("breaker must be open after threshold crashes")
	}
	probeAt := now.Add(11 * time.Millisecond)
	if !b.allow("fp", probeAt) {
		t.Fatal("past cooldown the breaker must admit a half-open probe")
	}
	if b.allow("fp", probeAt) {
		t.Fatal("only one probe may be in flight; the second submission must wait")
	}
	b.succeed("fp")
	if !b.allow("fp", probeAt) {
		t.Fatal("a clean probe must close the breaker")
	}
	// The history is gone too: one fresh crash is below threshold.
	b.record("fp", probeAt)
	if !b.allow("fp", probeAt) {
		t.Fatal("a closed breaker starts its crash count from zero")
	}
}

// TestBreakerHalfOpenReopens: a crash during the half-open probe reopens
// the breaker for a full fresh cooldown before the next probe.
func TestBreakerHalfOpenReopens(t *testing.T) {
	b := newBreaker(2, 10*time.Millisecond)
	now := time.Now()
	b.record("fp", now)
	b.record("fp", now)
	probeAt := now.Add(11 * time.Millisecond)
	if !b.allow("fp", probeAt) {
		t.Fatal("past cooldown the breaker must admit a half-open probe")
	}
	b.record("fp", probeAt) // the probe crashed
	if b.allow("fp", probeAt.Add(5*time.Millisecond)) {
		t.Fatal("a failed probe must reopen the breaker for a fresh cooldown")
	}
	if !b.allow("fp", probeAt.Add(11*time.Millisecond)) {
		t.Fatal("after the fresh cooldown the breaker must probe again")
	}
}

// TestBreakerStuckProbeExpires: a probe whose verdict never arrives (the
// job was canceled, or evicted from history) must not wedge the
// fingerprint shut — after a further cooldown a new probe is admitted.
func TestBreakerStuckProbeExpires(t *testing.T) {
	b := newBreaker(2, 10*time.Millisecond)
	now := time.Now()
	b.record("fp", now)
	b.record("fp", now)
	probeAt := now.Add(11 * time.Millisecond)
	if !b.allow("fp", probeAt) {
		t.Fatal("past cooldown the breaker must admit a half-open probe")
	}
	// The probe's verdict never lands. A further cooldown later, a new
	// probe goes out instead of rejecting forever.
	if b.allow("fp", probeAt.Add(5*time.Millisecond)) {
		t.Fatal("while the probe is fresh, further submissions must wait")
	}
	if !b.allow("fp", probeAt.Add(11*time.Millisecond)) {
		t.Fatal("a probe that never reported must expire after a cooldown")
	}
}

func TestMemoryBudgetRetries(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, CrashDir: t.TempDir(), MaxAttempts: 3, RetryBackoff: time.Millisecond})
	defer s.Shutdown(context.Background())

	p := gen.SBN(4)
	v, err := s.Submit(SubmitRequest{Program: p, JobSpec: JobSpec{Spec: backend.Spec{Model: "sc", MemoryBudget: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	v = waitState(t, s, v.ID)
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("memory-truncated job must still complete: %+v", v)
	}
	if !v.Result.Truncated || v.Result.TruncatedReason != core.TruncMemoryBudget {
		t.Fatalf("result not memory-truncated: truncated=%v reason=%q",
			v.Result.Truncated, v.Result.TruncatedReason)
	}
	if v.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (all retries burned)", v.Attempts)
	}
	if got := s.Metrics().JobsRetried.Load(); got != 2 {
		t.Errorf("hmcd_jobs_retried_total = %d, want 2", got)
	}
	// Transient truncation must not be cached: a resubmission runs again.
	again, err := s.Submit(SubmitRequest{Program: p, JobSpec: JobSpec{Spec: backend.Spec{Model: "sc", MemoryBudget: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Fatal("memory-budget-truncated results must never be cached")
	}
	waitState(t, s, again.ID)
}

func TestDeterministicTruncationNotRetried(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, CrashDir: t.TempDir(), MaxAttempts: 3, RetryBackoff: time.Millisecond})
	defer s.Shutdown(context.Background())

	v, err := s.Submit(SubmitRequest{Program: gen.SBN(4), JobSpec: JobSpec{Spec: backend.Spec{Model: "sc", MaxExecutions: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	v = waitState(t, s, v.ID)
	if v.State != StateDone {
		t.Fatalf("bounded job must complete: %+v", v)
	}
	if v.Result.TruncatedReason != core.TruncMaxExecutions {
		t.Fatalf("reason = %q, want %q", v.Result.TruncatedReason, core.TruncMaxExecutions)
	}
	if v.Attempts != 1 {
		t.Errorf("attempts = %d; deterministic truncation must not retry", v.Attempts)
	}
	if s.Metrics().JobsRetried.Load() != 0 {
		t.Error("deterministic truncation bumped the retry counter")
	}
}

// TestFailureHTTPPayload checks the wire format: a crashed job's JSON
// exposes attempts, the structured engine error (with a bounded stack) and
// the crash-artifact path.
func TestFailureHTTPPayload(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, Config{Workers: 1, CrashDir: dir})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, err := s.Submit(SubmitRequest{Program: corruptProgram(t, 6), JobSpec: JobSpec{Spec: backend.Spec{Model: "tso"}}})
	if err != nil {
		t.Fatal(err)
	}
	v = waitState(t, s, v.ID)

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var wire struct {
		State         string `json:"state"`
		Attempts      int    `json:"attempts"`
		CrashArtifact string `json:"crash_artifact"`
		EngineError   *struct {
			Op          string `json:"op"`
			Panic       string `json:"panic"`
			Fingerprint string `json:"fingerprint"`
			Model       string `json:"model"`
			Stack       string `json:"stack"`
		} `json:"engine_error"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, raw)
	}
	if wire.State != "failed" || wire.EngineError == nil {
		t.Fatalf("wire payload missing failure diagnostics:\n%s", raw)
	}
	if wire.EngineError.Op != "explore" || wire.EngineError.Model != "tso" ||
		wire.EngineError.Panic == "" || wire.EngineError.Fingerprint == "" {
		t.Errorf("engine_error fields incomplete:\n%s", raw)
	}
	if len(wire.EngineError.Stack) > 4096+len("\n[stack truncated; see crash artifact]") {
		t.Errorf("wire stack unbounded: %d bytes", len(wire.EngineError.Stack))
	}
	if wire.Attempts < 1 || wire.CrashArtifact == "" {
		t.Errorf("attempts/crash_artifact missing:\n%s", raw)
	}
	if _, err := os.Stat(wire.CrashArtifact); err != nil {
		t.Errorf("advertised artifact not on disk: %v", err)
	}

	// /metrics exposes the failure counters.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mraw, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"hmcd_engine_errors_total 1",
		"hmcd_crash_artifacts_total 1",
		"hmcd_crash_artifacts_resident 1",
	} {
		if !strings.Contains(string(mraw), want) {
			t.Errorf("/metrics missing %q:\n%s", want, mraw)
		}
	}
}

// TestWorkerPanicSecondLine drives the worker-loop recover directly: a
// hand-built job with a nil program (Submit rejects these, so only a
// service bug could produce one) panics inside runJob before the engine's
// own boundary is installed. The worker must survive and finalize the job
// as failed rather than crash the process.
func TestWorkerPanicSecondLine(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, CrashDir: t.TempDir()})
	defer s.Shutdown(context.Background())

	j := &Job{
		id:    "boom",
		state: StateQueued,
		req:   SubmitRequest{Program: nil, JobSpec: JobSpec{Spec: backend.Spec{Model: "sc"}}},
		opts:  core.Options{Model: mustModel(t, "sc")},
	}
	s.mu.Lock()
	s.jobs["boom"] = j
	s.mu.Unlock()

	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("safeRunJob let a panic escape: %v", r)
			}
		}()
		s.safeRunJob(j)
	}()
	s.mu.Lock()
	st, errMsg := j.state, j.errMsg
	s.mu.Unlock()
	if st != StateFailed || !strings.Contains(errMsg, "worker panic") {
		t.Errorf("second-line recover did not finalize the job: state=%s err=%q", st, errMsg)
	}
}
