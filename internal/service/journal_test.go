package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hmc/internal/backend"
	"hmc/internal/core"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
)

// manyExecsSource is a litmus program whose sc exploration has 11550
// executions (the interleavings of three store-only threads): long
// enough that the exploration stores several checkpoints before the
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
	v, err := s.Submit(SubmitRequest{Program: p, JobSpec: JobSpec{
		Source: src,
		Spec:   backend.Spec{Model: model, MaxExecutions: maxExecs},
	}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return v
}

// TestJournalRoundTrip exercises the job store in isolation: submits,
// checkpoints and done records survive a reopen, finished jobs are
// retired, and the id sequence continues.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, live, stats, err := openStore(dir, journalHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.liveJobs != 0 || stats.skipped != 0 || len(live) != 0 {
		t.Fatalf("fresh store reports %+v", stats)
	}
	req := JobSpec{Test: "SB", Spec: backend.Spec{Model: "sc"}}
	st.submit("job-000001", req)
	st.submit("job-000002", req)
	st.submit("job-000003", JobSpec{Spec: backend.Spec{Model: "sc"}}) // no Source/Test: not stored
	cp := &core.Checkpoint{Version: core.CheckpointVersion, Schema: core.SchemaVersion, Model: "sc"}
	if !st.checkpoint("job-000002", cp) {
		t.Fatal("checkpoint write refused")
	}
	st.done("job-000001")

	_, live, stats2, err := openStore(dir, journalHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.liveJobs != 1 {
		t.Fatalf("liveJobs = %d, want 1 (job-000002)", stats2.liveJobs)
	}
	if len(live) != 1 || live[0].ID != "job-000002" {
		t.Fatalf("live = %+v", live)
	}
	if len(live[0].checkpoint) == 0 {
		t.Fatal("replayed job lost its checkpoint")
	}
	s := mustNew(t, Config{Workers: 1, JournalDir: dir})
	defer s.Shutdown(context.Background())
	if v := submitSource(t, s, manyExecsSource, "sc", 1); v.ID != "job-000003" {
		t.Fatalf("first id after restart = %s, want job-000003 (continuing from job-000002)", v.ID)
	}
}

// TestJournalStoreCycles takes the store through many submit, checkpoint
// and done cycles: only the live jobs' files remain, a job retired before
// its submit was stored never gets a file, and a reopen re-enqueues
// exactly the live jobs with their latest checkpoints. Left-over files —
// undecodable or foreign-schema specs, an orphan checkpoint, a temp file
// of an interrupted write — are counted and removed on open.
func TestJournalStoreCycles(t *testing.T) {
	dir := t.TempDir()
	st, _, _, err := openStore(dir, journalHooks{})
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
	live := map[string][]byte{}
	for i := 1; i <= 20; i++ {
		id := fmt.Sprintf("job-%06d", i)
		st.submit(id, JobSpec{Test: "SB", Spec: backend.Spec{Model: "sc"}})
		for _, cp := range cps[:1+i%2] {
			if !st.checkpoint(id, cp) {
				t.Fatalf("%s: checkpoint not written", id)
			}
		}
		if i == 7 || i == 13 {
			data, _ := cps[i%2].Encode()
			live[id] = data
			continue
		}
		st.done(id)
	}
	// A fast job can finish before its submitter stores the spec.
	st.done("job-000021")
	st.submit("job-000021", JobSpec{Test: "SB", Spec: backend.Spec{Model: "sc"}})
	if st.checkpoint("job-000021", cps[0]) {
		t.Fatal("checkpoint written for a retired job")
	}

	want := []string{"job-000007.ckpt", "job-000007.json", "job-000013.ckpt", "job-000013.json"}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("store files = %q, want only the live jobs' %q", got, want)
	}

	foreign := fmt.Sprintf(`{"schema":%d,"id":"job-000030","test":"SB","model":"sc"}`, core.SchemaVersion+1)
	for name, data := range map[string]string{
		"job-000030.json":         foreign,
		"job-000031.json":         `{"schema":1,"id":"job-0000`,
		"job-000032.ckpt":         "{}",
		"job-000007.ckpt.123.tmp": "torn",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, jobs, stats, err := openStore(dir, journalHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.liveJobs != 2 || stats.skipped != 3 || stats.wrongSchema != 1 {
		t.Fatalf("stats = %+v, want 2 live, 3 skipped (garbage spec, orphan ckpt, temp file), 1 wrong-schema", stats)
	}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("store files after reopen = %q, want %q", got, want)
	}
	if len(jobs) != 2 || jobs[0].ID != "job-000007" || jobs[1].ID != "job-000013" {
		t.Fatalf("live jobs = %+v, want job-000007 and job-000013 in id order", jobs)
	}
	for _, sj := range jobs {
		if !bytes.Equal(sj.checkpoint, live[sj.ID]) {
			t.Errorf("%s: stored checkpoint is not the latest one written", sj.ID)
		}
	}
}

// dirNames lists the file names in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestJournalSkipsTornAndForeignRecords: a legacy journal file with a
// torn tail (the crash artifact the journal existed to survive) and a
// record from another engine schema imports its one good job; the bad
// records are dropped, never fatal, and are counted.
func TestJournalSkipsTornAndForeignRecords(t *testing.T) {
	dir := t.TempDir()
	submit, _ := json.Marshal(jrec{Type: "submit", Schema: core.SchemaVersion, ID: "job-000001", JobSpec: JobSpec{Test: "SB", Spec: backend.Spec{Model: "sc"}}})
	foreign, _ := json.Marshal(jrec{Type: "submit", Schema: core.SchemaVersion + 1, ID: "job-000009", JobSpec: JobSpec{Test: "LB"}})
	torn := `{"type":"submit","schema":1,"id":"job-0000` // torn, no newline
	journal := fmt.Sprintf("%s\n%s\n%s", submit, foreign, torn)
	if err := os.WriteFile(filepath.Join(dir, "journal-000000001.jsonl"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, stats, err := openStore(dir, journalHooks{})
	if err != nil {
		t.Fatalf("open after corruption: %v", err)
	}
	if stats.liveJobs != 1 || stats.skipped != 1 || stats.wrongSchema != 1 {
		t.Fatalf("stats = %+v, want 1 live, 1 skipped, 1 wrong-schema", stats)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "journal-*.jsonl")); len(files) != 0 {
		t.Fatalf("imported journal files not removed: %v", files)
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

	// Wait for at least two checkpoints to hit the store, then "kill"
	// the process: the job files freeze on disk mid-job.
	waitCheckpoints(t, s, 2)
	saved := s.Metrics().JournalCheckpoints.Load()
	s.store.kill() // the files freeze on disk, as if the process had been SIGKILLed
	s.Cancel(v.ID) // stop burning CPU; the files are not removed (dead store)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart on the same directory.
	s2 := mustNew(t, cfg)
	defer s2.Shutdown(context.Background())
	waitReady(t, s2)
	if got := s2.Metrics().JournalReplayedJobs.Load(); got != 1 {
		t.Fatalf("JournalReplayedJobs = %d, want 1", got)
	}
	if got := s2.Metrics().ResumeSavedExecs.Load(); got < 100 || got > 11550 {
		t.Fatalf("ResumeSavedExecs = %d, want within [100, 11550] (checkpoints were journaled: %d)",
			got, saved)
	}

	checkResumedStraight(t, s2, v.ID)

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

// waitCheckpoints waits until the store has written n checkpoints.
func waitCheckpoints(t *testing.T, s *Service, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.Metrics().JournalCheckpoints.Load() < n {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint journaled before deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitReady waits until a restarted service has re-enqueued its stored jobs.
func waitReady(t *testing.T, s *Service) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !s.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("restarted service never became ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// checkResumedStraight waits for the replayed manyExecsSource job id and
// checks that it finished resumed, with exactly the straight run's verdict.
func checkResumedStraight(t *testing.T, s *Service, id string) {
	t.Helper()
	done := waitState(t, s, id)
	if done.State != StateDone {
		t.Fatalf("replayed job finished %s (%s), want done", done.State, done.Err)
	}
	if !done.Resumed {
		t.Fatal("replayed job not marked Resumed")
	}
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
}

// TestShutdownKeepsRunningJob: when Shutdown's grace runs out mid-run, the
// running job is cancelled but not retired. It keeps its spec and the
// run's final checkpoint, and the next start resumes it to the straight
// run's verdict.
func TestShutdownKeepsRunningJob(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, JournalDir: dir, CheckpointEveryExecs: 100}
	s := mustNew(t, cfg)
	v := submitSource(t, s, manyExecsSource, "sc", 0)
	waitCheckpoints(t, s, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want the grace to expire mid-run", err)
	}
	if got, _ := s.Get(v.ID); got.State != StateCanceled || got.Result == nil || !got.Result.Interrupted {
		t.Fatalf("job after Shutdown: state %s, result %+v; want canceled with an interrupted result", got.State, got.Result)
	}

	s2 := mustNew(t, cfg)
	defer s2.Shutdown(context.Background())
	waitReady(t, s2)
	if got := s2.Metrics().JournalReplayedJobs.Load(); got != 1 {
		t.Fatalf("JournalReplayedJobs = %d, want 1", got)
	}
	checkResumedStraight(t, s2, v.ID)
}

// TestJobIDsNotReusedAfterRestart: a restart continues the id sequence
// past the finished jobs', not only past the live ones', so a client
// polling an old id never sees a different job.
func TestJobIDsNotReusedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, JournalDir: dir}
	s := mustNew(t, cfg)
	for i := 1; i <= 3; i++ {
		v := submitSource(t, s, manyExecsSource, "sc", i) // distinct caps: no cache hits
		if want := fmt.Sprintf("job-%06d", i); v.ID != want {
			t.Fatalf("submission %d got %s, want %s", i, v.ID, want)
		}
		if done := waitState(t, s, v.ID); done.State != StateDone {
			t.Fatalf("%s finished %s (%s)", v.ID, done.State, done.Err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := mustNew(t, cfg)
	defer s2.Shutdown(context.Background())
	if v := submitSource(t, s2, manyExecsSource, "sc", 4); v.ID != "job-000004" {
		t.Fatalf("first id after restart = %s, want job-000004", v.ID)
	}
}

// TestJournalReplaysOldShardsRecord: a submit record journaled by an
// older daemon that still accepted a "shards" count imports and replays
// as a plain job — journal records decode leniently — and finishes with
// the straight run's totals.
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
	v, err := s.Submit(SubmitRequest{Program: sb.P, JobSpec: JobSpec{Test: "SB", Spec: backend.Spec{Model: "sc"}}})
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
	v2, err := s2.Submit(SubmitRequest{Program: sb.P, JobSpec: JobSpec{Test: "SB", Spec: backend.Spec{Model: "sc"}}})
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

// TestJournalReplayUnbuildableJobFails: an imported job whose program no
// longer builds (here, a corpus test this binary does not have) is
// recorded as failed, stays pollable, and has its files removed so the
// next start does not replay it again.
func TestJournalReplayUnbuildableJobFails(t *testing.T) {
	dir := t.TempDir()
	rec := fmt.Sprintf(`{"type":"submit","schema":%d,"id":"job-000001","test":"no-such-test","model":"tso"}`+"\n", core.SchemaVersion)
	if err := os.WriteFile(filepath.Join(dir, "journal-000000001.jsonl"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 1, JournalDir: dir, CrashDir: filepath.Join(dir, "crashes")}
	s := mustNew(t, cfg)
	for deadline := time.Now().Add(30 * time.Second); !s.Ready(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("service never became ready")
		}
	}
	v, ok := s.Get("job-000001")
	if !ok || v.State != StateFailed || !strings.Contains(v.Err, `unknown corpus test "no-such-test"`) {
		t.Fatalf("unbuildable replay: ok=%v state=%s err=%q", ok, v.State, v.Err)
	}
	if len(s.Jobs()) != 1 {
		t.Fatalf("Jobs() = %d views, want 1", len(s.Jobs()))
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2 := mustNew(t, cfg)
	defer s2.Shutdown(context.Background())
	for deadline := time.Now().Add(30 * time.Second); !s2.Ready(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("restarted service never became ready")
		}
	}
	if _, ok := s2.Get("job-000001"); ok {
		t.Fatal("the failed job was replayed again after a restart")
	}
}
