package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hmc/internal/core"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
)

// manyExecsSource is a litmus program whose sc exploration has 11550
// executions (the interleavings of three store-only threads): long
// enough that the exploration journals several checkpoints before the
// test kills the service, small enough to run to completion twice.
const manyExecsSource = `
name many-writes
T0: W x 1 ; W x 2 ; W x 3 ; W x 4
T1: W x 11 ; W x 12 ; W x 13 ; W x 14
T2: W x 21 ; W x 22 ; W x 23
exists x=4
`

func submitSource(t *testing.T, s *Service, src, model string, maxExecs int) JobView {
	t.Helper()
	p, err := litmus.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	v, err := s.Submit(SubmitRequest{
		Program:       p,
		Model:         model,
		MaxExecutions: maxExecs,
		Source:        src,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return v
}

// TestJournalRoundTrip exercises the journal in isolation: submits,
// checkpoints and done records survive a reopen, finished jobs are
// retired, and the id sequence continues.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, stats, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.liveJobs != 0 || stats.skipped != 0 {
		t.Fatalf("fresh journal reports %+v", stats)
	}
	req := SubmitRequest{Test: "SB", Model: "sc"}
	j.submit("job-000001", req)
	j.submit("job-000002", req)
	j.submit("job-000003", SubmitRequest{Model: "sc"}) // no Source/Test: not journaled
	cp := &core.Checkpoint{Version: core.CheckpointVersion, Schema: core.SchemaVersion, Model: "sc"}
	if !j.checkpoint("job-000002", cp) {
		t.Fatal("checkpoint append refused")
	}
	j.done("job-000001", StateDone)
	j.close()

	j2, stats2, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if stats2.liveJobs != 1 {
		t.Fatalf("liveJobs = %d, want 1 (job-000002)", stats2.liveJobs)
	}
	live := j2.takeLive()
	if len(live) != 1 || live[0].submit.ID != "job-000002" {
		t.Fatalf("live = %+v", live)
	}
	if len(live[0].checkpoint) == 0 {
		t.Fatal("replayed job lost its checkpoint")
	}
	if got := j2.maxLiveID(); got != 2 {
		t.Fatalf("maxLiveID = %d, want 2", got)
	}
}

// TestJournalSkipsTornAndForeignRecords: a torn tail (the crash artifact
// the journal exists to survive) and records from another engine schema
// are dropped, never fatal, and are counted.
func TestJournalSkipsTornAndForeignRecords(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	j.submit("job-000001", SubmitRequest{Test: "SB", Model: "sc"})
	j.close()

	// Corrupt the journal the way a crash mid-append would: a torn final
	// line. Also splice in a record from a pretend future engine.
	files, err := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
	if err != nil || len(files) != 1 {
		t.Fatalf("journal files = %v (%v)", files, err)
	}
	foreign, _ := json.Marshal(jrec{Type: jrecSubmit, Schema: core.SchemaVersion + 1, ID: "job-000009", Test: "LB"})
	f, err := os.OpenFile(files[0], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "%s\n", foreign)
	fmt.Fprintf(f, `{"type":"submit","schema":1,"id":"job-0000`) // torn, no newline
	f.Close()

	j2, stats, err := openJournal(dir, 0)
	if err != nil {
		t.Fatalf("reopen after corruption: %v", err)
	}
	defer j2.close()
	if stats.liveJobs != 1 || stats.skipped != 1 || stats.wrongSchema != 1 {
		t.Fatalf("stats = %+v, want 1 live, 1 skipped, 1 wrong-schema", stats)
	}
}

// TestJournalRotationCompacts: appends past the size bound rotate into a
// fresh file seeded with only the live state, and the old file is
// removed — finished jobs' records are garbage-collected.
func TestJournalRotationCompacts(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, 512) // tiny bound: rotate every few records
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		id := fmt.Sprintf("job-%06d", i)
		j.submit(id, SubmitRequest{Test: "SB", Model: "sc"})
		if i != 7 { // keep one job live across every rotation
			j.done(id, StateDone)
		}
	}
	j.close()

	files, _ := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
	if len(files) != 1 {
		t.Fatalf("after rotation %d files remain: %v", len(files), files)
	}
	// The surviving file holds the last compaction snapshot (the one live
	// job) plus whatever was appended since — far fewer than the 79
	// records written in total.
	data, _ := os.ReadFile(files[0])
	if n := strings.Count(string(data), "\n"); n > 12 {
		t.Fatalf("compacted journal has %d records, want a handful:\n%s", n, data)
	}
	j2, stats, err := openJournal(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if stats.liveJobs != 1 || j2.maxLiveID() != 7 {
		t.Fatalf("stats = %+v maxLiveID = %d, want the one live job-000007", stats, j2.maxLiveID())
	}
}

// TestServiceResumesAfterKill is the service-level crash-safety property:
// a job killed mid-exploration is replayed from the journal on the next
// start, resumes from its last checkpoint (not from scratch), and — run
// to completion — produces exactly the verdict a straight run produces.
// (The equality holds for completed explorations: an execution-capped cut
// selects an exploration-order-dependent subset, which is why the job
// here is unbounded; see the resume-equivalence suite in internal/core.)
func TestServiceResumesAfterKill(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, JournalDir: dir, CheckpointEveryExecs: 100,
		CrashDir: filepath.Join(dir, "crashes")}

	s := mustNew(t, cfg)
	v := submitSource(t, s, manyExecsSource, "sc", 0)

	// Wait for at least two checkpoints to hit the journal, then "kill"
	// the process: the journal freezes on disk mid-job.
	deadline := time.Now().Add(30 * time.Second)
	for s.Metrics().JournalCheckpoints.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint journaled before deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	saved := s.Metrics().JournalCheckpoints.Load()
	s.killForTest()
	s.Cancel(v.ID) // stop burning CPU; the canceled record is dropped (dead journal)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart on the same journal directory.
	s2 := mustNew(t, cfg)
	defer s2.Shutdown(context.Background())
	for !s2.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("restarted service never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s2.Metrics().JournalReplayedJobs.Load(); got != 1 {
		t.Fatalf("JournalReplayedJobs = %d, want 1", got)
	}
	if got := s2.Metrics().ResumeSavedExecs.Load(); got < 100 || got > 11550 {
		t.Fatalf("ResumeSavedExecs = %d, want within [100, 11550] (checkpoints were journaled: %d)",
			got, saved)
	}

	done := waitState(t, s2, v.ID)
	if done.State != StateDone {
		t.Fatalf("replayed job finished %s (%s), want done", done.State, done.Err)
	}
	if !done.Resumed {
		t.Fatal("replayed job not marked Resumed")
	}

	// The resumed verdict must be exactly the straight run's.
	p, err := litmus.Parse(manyExecsSource)
	if err != nil {
		t.Fatal(err)
	}
	model, err := memmodel.ByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	straight, err := core.Explore(p, core.Options{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	r := done.Result
	if r == nil {
		t.Fatal("resumed job has no result")
	}
	if r.Executions != straight.Executions || r.ExistsCount != straight.ExistsCount ||
		r.Blocked != straight.Blocked || r.Truncated != straight.Truncated ||
		r.TruncatedReason != straight.TruncatedReason {
		t.Fatalf("resumed verdict diverges from straight run:\nresumed:  execs=%d exists=%d blocked=%d trunc=%v (%s)\nstraight: execs=%d exists=%d blocked=%d trunc=%v (%s)",
			r.Executions, r.ExistsCount, r.Blocked, r.Truncated, r.TruncatedReason,
			straight.Executions, straight.ExistsCount, straight.Blocked, straight.Truncated, straight.TruncatedReason)
	}

	// The finished job is retired: a third start has nothing to replay.
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s3 := mustNew(t, cfg)
	defer s3.Shutdown(context.Background())
	if got := s3.Metrics().JournalReplayedJobs.Load(); got != 0 {
		t.Fatalf("third start replayed %d jobs, want 0", got)
	}
}

// TestJournalReplaysOldShardsRecord: a submit record journaled by an
// older daemon that still accepted a "shards" count replays as a plain
// job — journal records decode leniently — and finishes with the straight
// run's totals.
func TestJournalReplaysOldShardsRecord(t *testing.T) {
	dir := t.TempDir()
	rec := fmt.Sprintf(`{"type":"submit","schema":%d,"id":"job-000001","test":"SB","model":"tso","shards":4}`+"\n", core.SchemaVersion)
	if err := os.WriteFile(filepath.Join(dir, "journal-000000001.jsonl"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Workers: 1, JournalDir: dir})
	defer s.Shutdown(context.Background())
	deadline := time.Now().Add(30 * time.Second)
	for !s.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("service never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.Metrics().JournalReplayedJobs.Load(); got != 1 {
		t.Fatalf("JournalReplayedJobs = %d, want 1", got)
	}
	done := waitState(t, s, "job-000001")
	if done.State != StateDone || done.Result == nil {
		t.Fatalf("replayed job finished %s (%s), want done with a result", done.State, done.Err)
	}
	straight, err := core.Explore(mustTest(t, "SB"), core.Options{Model: memmodel.TSO{}})
	if err != nil {
		t.Fatal(err)
	}
	got, want := done.Result.Stats, straight.Stats
	got.Errors, want.Errors = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed totals diverge from the straight run:\nreplayed: %+v\nstraight: %+v", got, want)
	}
}

// TestVerdictCachePersists: a verdict computed before a graceful restart
// answers the same submission from cache afterwards.
func TestVerdictCachePersists(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, JournalDir: dir, CrashDir: filepath.Join(dir, "crashes")}

	s := mustNew(t, cfg)
	sb, _ := litmus.ByName("SB")
	v, err := s.Submit(SubmitRequest{Program: sb.P, Model: "sc", Test: "SB"})
	if err != nil {
		t.Fatal(err)
	}
	first := waitState(t, s, v.ID)
	if first.State != StateDone || first.CacheHit {
		t.Fatalf("first run: state=%s cacheHit=%v", first.State, first.CacheHit)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := mustNew(t, cfg)
	defer s2.Shutdown(context.Background())
	if got := s2.Metrics().VerdictsReloaded.Load(); got < 1 {
		t.Fatalf("VerdictsReloaded = %d, want >= 1", got)
	}
	v2, err := s2.Submit(SubmitRequest{Program: sb.P, Model: "sc", Test: "SB"})
	if err != nil {
		t.Fatal(err)
	}
	if !v2.CacheHit {
		t.Fatal("repeat submission after restart missed the persisted cache")
	}
	if v2.Result.Executions != first.Result.Executions || v2.Result.ExistsCount != first.Result.ExistsCount {
		t.Fatalf("persisted verdict diverges: %+v vs %+v", v2.Result.Stats, first.Result.Stats)
	}
}

// TestVerdictFileSchemaMismatchDropped: a verdicts.json written by a
// different engine schema is dropped wholesale on load.
func TestVerdictFileSchemaMismatchDropped(t *testing.T) {
	dir := t.TempDir()
	stale, _ := json.Marshal(verdictFileJSON{
		Schema:   core.SchemaVersion + 1,
		Verdicts: []storedVerdict{{Key: "k", Stats: core.Stats{Executions: 9}}},
	})
	if err := os.WriteFile(filepath.Join(dir, verdictFile), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Workers: 1, JournalDir: dir, CrashDir: filepath.Join(dir, "crashes")})
	defer s.Shutdown(context.Background())
	if got := s.Metrics().VerdictsReloaded.Load(); got != 0 {
		t.Fatalf("reloaded %d verdicts from a foreign schema, want 0", got)
	}
	if s.cache.len() != 0 {
		t.Fatalf("cache has %d entries, want 0", s.cache.len())
	}
}
