package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"hmc/internal/backend"
	"hmc/internal/litmus"
)

// TestWriteJSONEncodeFailure is the regression test for the swallowed
// encoder error: a payload that cannot marshal (NaN) must produce a clean
// 500 with a *valid* JSON error body — not a truncated 200 — and bump
// hmcd_http_encode_errors_total.
func TestWriteJSONEncodeFailure(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())

	rec := httptest.NewRecorder()
	s.writeJSON(rec, 200, map[string]any{"rate": math.NaN()})
	if rec.Code != 500 {
		t.Fatalf("encode failure answered %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("fallback body is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if !strings.Contains(body["error"], "encoding failed") {
		t.Errorf("fallback error %q does not name the encode failure", body["error"])
	}
	if got := s.metrics.HTTPEncodeErrors.Load(); got != 1 {
		t.Errorf("HTTPEncodeErrors = %d, want 1", got)
	}

	// The success path still emits the requested status and parseable JSON.
	rec2 := httptest.NewRecorder()
	s.writeJSON(rec2, 201, map[string]string{"ok": "yes"})
	if rec2.Code != 201 {
		t.Errorf("success path answered %d, want 201", rec2.Code)
	}
	var ok map[string]string
	if err := json.Unmarshal(rec2.Body.Bytes(), &ok); err != nil || ok["ok"] != "yes" {
		t.Errorf("success body broken: %v %q", err, rec2.Body.String())
	}
	if got := s.metrics.HTTPEncodeErrors.Load(); got != 1 {
		t.Errorf("success path must not count an encode error (got %d)", got)
	}
}

// TestEvictedVerdictNotServedAfterReload pins the cache-eviction counter
// and the persistence interaction: with CacheSize 1, caching a second
// verdict evicts the first (counted), the persisted file holds only the
// survivor, and after a restart the evicted program is a cache miss that
// re-explores — never a stale hit.
func TestEvictedVerdictNotServedAfterReload(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CacheSize: 1, JournalDir: dir}
	s := mustNew(t, cfg)

	sb, _ := litmus.ByName("SB")
	mp, _ := litmus.ByName("MP")
	v, err := s.Submit(SubmitRequest{Program: sb.P, JobSpec: JobSpec{Test: "SB", Spec: backend.Spec{Model: "sc"}}})
	if err != nil {
		t.Fatal(err)
	}
	if v = waitState(t, s, v.ID); v.State != StateDone {
		t.Fatalf("SB: %s (%s)", v.State, v.Err)
	}
	if v, err = s.Submit(SubmitRequest{Program: mp.P, JobSpec: JobSpec{Test: "MP", Spec: backend.Spec{Model: "sc"}}}); err != nil {
		t.Fatal(err)
	}
	if v = waitState(t, s, v.ID); v.State != StateDone {
		t.Fatalf("MP: %s (%s)", v.State, v.Err)
	}
	if got := s.metrics.CacheEvictions.Load(); got != 1 {
		t.Errorf("CacheEvictions = %d, want 1 (MP must evict SB from a size-1 cache)", got)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := mustNew(t, cfg)
	defer s2.Shutdown(context.Background())
	if got := s2.Metrics().VerdictsReloaded.Load(); got != 1 {
		t.Errorf("VerdictsReloaded = %d, want 1 (only the surviving entry persists)", got)
	}
	if v, err = s2.Submit(SubmitRequest{Program: mp.P, JobSpec: JobSpec{Test: "MP", Spec: backend.Spec{Model: "sc"}}}); err != nil {
		t.Fatal(err)
	}
	if !v.CacheHit {
		t.Error("MP survived the eviction and the restart: must be a cache hit")
	}
	if v, err = s2.Submit(SubmitRequest{Program: sb.P, JobSpec: JobSpec{Test: "SB", Spec: backend.Spec{Model: "sc"}}}); err != nil {
		t.Fatal(err)
	}
	if v.CacheHit {
		t.Fatal("evicted SB verdict served from cache after reload")
	}
	if v = waitState(t, s2, v.ID); v.State != StateDone || v.Result == nil {
		t.Fatalf("SB re-exploration failed: %s (%s)", v.State, v.Err)
	}
}
