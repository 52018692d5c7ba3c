package service

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"hmc/internal/backend"
	"hmc/internal/faultinject"
	"hmc/internal/litmus"
	"hmc/internal/prog"
)

// TestJournalDegradedRecovery exercises the journal's degraded mode at
// the file boundary: an injected ENOSPC on one append flips the journal
// degraded (counted, classified), the record still lands in the live
// map, and the next clean append restores durability.
func TestJournalDegradedRecovery(t *testing.T) {
	plan := &faultinject.Plan{
		Seed: 7,
		// Write ordinals are 1-based: 1 is the open-time compaction
		// snapshot, 2 the first append.
		Journal: &faultinject.FileFaults{WriteErrAt: []int64{2}},
	}
	errs := 0
	j, _, err := openJournalWith(t.TempDir(), 0, journalHooks{
		Wrap:         func(f journalFile) journalFile { return faultinject.WrapFile(f, plan, nil) },
		OnWriteError: func(error) { errs++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()

	j.submit("job-000001", JobSpec{Test: "SB", Spec: backend.Spec{Model: "sc"}})
	if degraded, why := j.degradedState(); !degraded || why != "disk full (ENOSPC)" {
		t.Fatalf("after injected ENOSPC: degraded=%v why=%q, want true / disk full (ENOSPC)", degraded, why)
	}
	if errs != 1 {
		t.Fatalf("OnWriteError fired %d times, want 1", errs)
	}
	if len(j.takeLive()) != 1 {
		t.Fatal("the failed append must still land in the live map (in-memory journal)")
	}

	j.submit("job-000002", JobSpec{Test: "MP", Spec: backend.Spec{Model: "sc"}})
	if degraded, _ := j.degradedState(); degraded {
		t.Fatal("a clean append must clear the degraded state")
	}
	if errs != 1 {
		t.Fatalf("OnWriteError fired %d times after recovery, want still 1", errs)
	}
}

// TestReadyzReportsJournalDegraded: a journal stuck degraded (every
// write failing) keeps the service serving — /readyz stays 200 — but the
// body and the metrics say so.
func TestReadyzReportsJournalDegraded(t *testing.T) {
	plan := &faultinject.Plan{
		Seed: 7,
		// Ordinal 1 (the open-time snapshot) must succeed or New fails;
		// every append after it hits ENOSPC.
		Journal: &faultinject.FileFaults{WriteErrAt: []int64{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
	}
	s := mustNew(t, Config{Workers: 1, JournalDir: t.TempDir(), ChaosPlan: plan})
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
		t.Error("hmcd_journal_write_errors_total = 0, want the failed appends counted")
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
