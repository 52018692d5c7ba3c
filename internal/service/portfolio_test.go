package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmc/internal/backend"
	"hmc/internal/litmus"
	"hmc/internal/prog"
)

// wrongBackend is an always-applicable alternate that confidently returns
// a fabricated exhaustive verdict, guaranteed to disagree with the DFS
// anchor on any real program.
type wrongBackend struct{ name string }

func (w *wrongBackend) Name() string                                 { return w.name }
func (w *wrongBackend) Applicable(*prog.Program, backend.Spec) error { return nil }
func (w *wrongBackend) Run(ctx context.Context, p *prog.Program, s backend.Spec) (*backend.Verdict, error) {
	keys := []string{"fabricated|outcome"}
	return &backend.Verdict{
		Backend:       w.name,
		Model:         s.Model,
		Outcomes:      keys,
		OutcomeDigest: backend.Digest(keys),
		Allowed:       false,
		Assertion:     backend.Pass,
		Exhaustive:    true,
	}, nil
}

// TestPortfolioDisagreementQuarantines is the injected-fault acceptance
// test: a lying backend must quarantine the job, write a replayable
// artifact, bump the disagreement metrics, keep the verdict out of the
// cache, and trip the per-fingerprint breaker.
func TestPortfolioDisagreementQuarantines(t *testing.T) {
	qdir := t.TempDir()
	s := mustNew(t, Config{
		Workers:          1,
		Portfolio:        true,
		QuarantineDir:    qdir,
		BreakerThreshold: 2,
	})
	defer s.Shutdown(context.Background())
	s.alternates = []backend.Backend{&wrongBackend{name: "liar"}}

	sb, _ := litmus.ByName("SB")
	v, err := s.Submit(SubmitRequest{Program: sb.P, Model: "tso", Test: "SB"})
	if err != nil {
		t.Fatal(err)
	}
	v = waitState(t, s, v.ID)
	if v.State != StateQuarantined {
		t.Fatalf("state %s, want quarantined (err %q)", v.State, v.Err)
	}
	if v.Err == "" || v.Result != nil {
		t.Fatalf("quarantined job must carry an error and no served result: %+v", v)
	}
	if len(v.Attestation) == 0 || v.Winner == nil {
		t.Errorf("attestation trail missing: %+v", v)
	}

	// The artifact exists, identifies itself, and replays to the program.
	if v.QuarantineArtifact == "" {
		t.Fatal("no quarantine artifact path on the job view")
	}
	if _, err := os.Stat(v.QuarantineArtifact); err != nil {
		t.Fatalf("artifact not on disk: %v", err)
	}
	if !IsQuarantineArtifact(v.QuarantineArtifact) {
		t.Error("IsQuarantineArtifact should recognize the file")
	}
	art, err := LoadQuarantineArtifact(v.QuarantineArtifact)
	if err != nil {
		t.Fatal(err)
	}
	if art.Winner == nil || art.Dissenter == nil || art.Diff == "" {
		t.Fatalf("artifact must carry both verdicts and the diff: %+v", art)
	}
	replay, err := art.BuildProgram()
	if err != nil {
		t.Fatalf("artifact not replayable: %v", err)
	}
	if replay.Fingerprint() != sb.P.Fingerprint() {
		t.Error("replayed program diverges from the submitted one")
	}

	m := s.Metrics()
	if m.BackendDisagreements.Load() == 0 {
		t.Error("hmcd_backend_disagreements_total not bumped")
	}
	if m.JobsQuarantined.Load() != 1 || m.QuarantineArtifacts.Load() != 1 {
		t.Errorf("quarantine counters = %d/%d, want 1/1",
			m.JobsQuarantined.Load(), m.QuarantineArtifacts.Load())
	}

	// NOT cached: an identical resubmission must miss the cache and run
	// (and quarantine) again rather than serve the poisoned verdict.
	second, err := s.Submit(SubmitRequest{Program: sb.P, Model: "tso", Test: "SB"})
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHit {
		t.Fatal("disagreeing verdict was served from cache")
	}
	second = waitState(t, s, second.ID)
	if second.State != StateQuarantined {
		t.Fatalf("second run: state %s, want quarantined", second.State)
	}

	// Two disagreements reach BreakerThreshold: the fingerprint is now
	// circuit-broken.
	if _, err := s.Submit(SubmitRequest{Program: sb.P, Model: "tso", Test: "SB"}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker should reject the third submission, got %v", err)
	}

	// Artifact eviction cap respected: both artifacts fit under the default.
	files, _ := filepath.Glob(filepath.Join(qdir, quarantineKind+"-*.json"))
	if len(files) != 2 {
		t.Errorf("want 2 artifacts on disk, got %d", len(files))
	}
}

// TestPortfolioAgreementServesAnchorResult: with the real alternates, the
// portfolio path must serve a result identical to the legacy single-engine
// path, cache it, and attach the attestation trail.
func TestPortfolioAgreementServesAnchorResult(t *testing.T) {
	legacy := mustNew(t, Config{Workers: 1})
	defer legacy.Shutdown(context.Background())
	port := mustNew(t, Config{Workers: 1, Portfolio: true, QuarantineDir: t.TempDir()})
	defer port.Shutdown(context.Background())

	sb, _ := litmus.ByName("SB")
	want, err := legacy.Submit(SubmitRequest{Program: sb.P, Model: "tso"})
	if err != nil {
		t.Fatal(err)
	}
	want = waitState(t, legacy, want.ID)

	got, err := port.Submit(SubmitRequest{Program: sb.P, Model: "tso"})
	if err != nil {
		t.Fatal(err)
	}
	got = waitState(t, port, got.ID)
	if got.State != StateDone || got.Result == nil {
		t.Fatalf("state %s (err %q)", got.State, got.Err)
	}
	if got.Result.Executions != want.Result.Executions ||
		got.Result.ExistsCount != want.Result.ExistsCount ||
		got.Result.Blocked != want.Result.Blocked {
		t.Errorf("portfolio result %+v diverges from legacy %+v", got.Result, want.Result)
	}
	if len(got.Attestation) == 0 {
		t.Error("portfolio job has no attestation trail")
	}
	if got.Winner == nil || got.Winner.OutcomeDigest == "" {
		t.Errorf("winner verdict missing: %+v", got.Winner)
	}
	if got.QuarantineArtifact != "" {
		t.Errorf("agreement must not quarantine: %s", got.QuarantineArtifact)
	}
	if port.Metrics().BackendRuns.Load() == 0 || port.Metrics().BackendWins.Load() == 0 {
		t.Error("backend run/win counters not bumped")
	}

	// Agreement IS cacheable.
	again, err := port.Submit(SubmitRequest{Program: sb.P, Model: "tso"})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("agreed verdict should be served from cache")
	}
}

// TestQuarantineMetricsRendered: the new counters and the per-backend
// latency histogram family appear on the Prometheus surface.
func TestQuarantineMetricsRendered(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, Portfolio: true, QuarantineDir: t.TempDir()})
	defer s.Shutdown(context.Background())

	sb, _ := litmus.ByName("SB")
	v, err := s.Submit(SubmitRequest{Program: sb.P, Model: "tso"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID)

	var b strings.Builder
	s.Metrics().writePrometheus(&b, 0, 0, 0, 0, true)
	text := b.String()
	for _, want := range []string{
		"hmcd_backend_runs_total",
		"hmcd_backend_wins_total",
		"hmcd_backend_timeouts_total",
		"hmcd_backend_disagreements_total",
		"hmcd_jobs_quarantined_total",
		"hmcd_quarantine_artifacts_total",
		`hmcd_backend_latency_seconds_bucket{backend="dfs"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
