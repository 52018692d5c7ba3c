package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hmc/internal/backend"
	"hmc/internal/core"
	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// mustNew starts a service or fails the test (New only errors on an
// unusable journal directory, which these configs never hit).
func mustNew(t testing.TB, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// waitState polls until job id reaches a terminal state.
func waitState(t *testing.T, s *Service, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

func TestSubmitRunsToVerdict(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())

	mp, _ := litmus.ByName("MP")
	v, err := s.Submit(SubmitRequest{Program: mp.P, JobSpec: JobSpec{Spec: backend.Spec{Model: "imm"}}})
	if err != nil {
		t.Fatal(err)
	}
	v = waitState(t, s, v.ID)
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("state %s, result %v (err %q)", v.State, v.Result, v.Err)
	}
	want, err := core.Explore(mp.P, core.Options{Model: mustModel(t, "imm")})
	if err != nil {
		t.Fatal(err)
	}
	if v.Result.Executions != want.Executions || (v.Result.ExistsCount > 0) != (want.ExistsCount > 0) {
		t.Errorf("service verdict %d/%d diverges from direct Explore %d/%d",
			v.Result.Executions, v.Result.ExistsCount, want.Executions, want.ExistsCount)
	}
	if !v.Result.Exhaustive() {
		t.Error("an unbounded small job must be exhaustive")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())

	mp, _ := litmus.ByName("MP")
	if _, err := s.Submit(SubmitRequest{Program: nil, JobSpec: JobSpec{Spec: backend.Spec{Model: "imm"}}}); err == nil {
		t.Error("nil program must be rejected")
	}
	if _, err := s.Submit(SubmitRequest{Program: mp.P, JobSpec: JobSpec{Spec: backend.Spec{Model: "not-a-model"}}}); err == nil {
		t.Error("unknown model must be rejected")
	}
}

func TestVerdictCacheHit(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())

	sb, _ := litmus.ByName("SB")
	first, err := s.Submit(SubmitRequest{Program: sb.P, JobSpec: JobSpec{Spec: backend.Spec{Model: "tso"}}})
	if err != nil {
		t.Fatal(err)
	}
	first = waitState(t, s, first.ID)
	if first.CacheHit {
		t.Fatal("first submission cannot be a cache hit")
	}
	second, err := s.Submit(SubmitRequest{Program: sb.P, JobSpec: JobSpec{Spec: backend.Spec{Model: "tso"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.State != StateDone {
		t.Fatalf("second submission must be served from cache: %+v", second)
	}
	if second.Result.Executions != first.Result.Executions {
		t.Error("cached result diverges")
	}
	// Different model or options must miss.
	third, err := s.Submit(SubmitRequest{Program: sb.P, JobSpec: JobSpec{Spec: backend.Spec{Model: "sc"}}})
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Error("different model must not hit the cache")
	}
	waitState(t, s, third.ID)
	if got := s.Metrics().CacheHits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
}

func TestCacheKeyIgnoresName(t *testing.T) {
	// Fingerprint ignores Name/LocNames: the same program under another
	// name is the same cache entry.
	a := gen.SBN(3)
	b := gen.SBN(3)
	b.Name = "renamed"
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint must ignore the program name")
	}
	if gen.SBN(3).Fingerprint() == gen.SBN(4).Fingerprint() {
		t.Fatal("different programs must not collide")
	}
}

func TestDeadlineInterruptsJob(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())

	// inc(4,3) is far too big to finish in 20ms; the deadline must stop
	// it mid-exploration with partial stats, job state still "done".
	v, err := s.Submit(SubmitRequest{Program: gen.IncN(4, 3), JobSpec: JobSpec{Spec: backend.Spec{Model: "sc"}, TimeoutMS: 20}})
	if err != nil {
		t.Fatal(err)
	}
	v = waitState(t, s, v.ID)
	if v.State != StateDone {
		t.Fatalf("state %s, err %q", v.State, v.Err)
	}
	if !v.Result.Interrupted {
		t.Fatal("result must be marked interrupted")
	}
	if v.Result.Exhaustive() {
		t.Fatal("interrupted result cannot claim exhaustiveness")
	}
	if s.Metrics().JobsInterrupted.Load() != 1 {
		t.Error("interrupted counter not bumped")
	}
	// Interrupted results must not poison the cache.
	again, err := s.Submit(SubmitRequest{Program: gen.IncN(4, 3), JobSpec: JobSpec{Spec: backend.Spec{Model: "sc"}, TimeoutMS: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Fatal("interrupted result must not be cached")
	}
	waitState(t, s, again.ID)
}

func TestCancelRunningJob(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())

	v, err := s.Submit(SubmitRequest{Program: gen.IncN(4, 3), JobSpec: JobSpec{Spec: backend.Spec{Model: "sc"}}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running, then cancel.
	for {
		cur, _ := s.Get(v.ID)
		if cur.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !s.Cancel(v.ID) {
		t.Fatal("cancel of a running job must succeed")
	}
	v = waitState(t, s, v.ID)
	if v.State != StateCanceled {
		t.Fatalf("state %s, want canceled", v.State)
	}
	if v.Result == nil || !v.Result.Interrupted {
		t.Error("canceled job must retain its partial interrupted result")
	}
	if s.Cancel(v.ID) {
		t.Error("cancel of a terminal job must report false")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueSize: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		s.Shutdown(ctx) // cancels the stuffed jobs
	}()

	// One long job occupies the worker, a second fills the queue slot,
	// and the third must bounce.
	big := gen.IncN(4, 3)
	first, err := s.Submit(SubmitRequest{Program: big, JobSpec: JobSpec{Spec: backend.Spec{Model: "sc"}}})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if v, _ := s.Get(first.ID); v.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(SubmitRequest{Program: big, JobSpec: JobSpec{Spec: backend.Spec{Model: "tso"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(SubmitRequest{Program: big, JobSpec: JobSpec{Spec: backend.Spec{Model: "pso"}}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if s.Metrics().JobsRejected.Load() == 0 {
		t.Error("rejected counter not bumped")
	}
}

func TestShutdownDrainsQueuedJobs(t *testing.T) {
	s := mustNew(t, Config{Workers: 2})
	sb, _ := litmus.ByName("SB")
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		v, err := s.Submit(SubmitRequest{Program: sb.P, JobSpec: JobSpec{Spec: backend.Spec{Model: "tso"}}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		v, ok := s.Get(id)
		if !ok || v.State != StateDone {
			t.Errorf("job %s not drained to done: %+v", id, v)
		}
	}
	if _, err := s.Submit(SubmitRequest{Program: sb.P, JobSpec: JobSpec{Spec: backend.Spec{Model: "tso"}}}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-shutdown submit: want ErrDraining, got %v", err)
	}
}

func TestJobHistoryEviction(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, JobHistory: 3, CacheSize: -1})
	defer s.Shutdown(context.Background())

	sb, _ := litmus.ByName("SB")
	var last string
	for i := 0; i < 6; i++ {
		v, err := s.Submit(SubmitRequest{Program: sb.P, JobSpec: JobSpec{Spec: backend.Spec{Model: "tso"}}})
		if err != nil {
			t.Fatal(err)
		}
		last = v.ID
		waitState(t, s, v.ID)
	}
	if got := len(s.Jobs()); got > 3 {
		t.Errorf("history retained %d jobs, cap is 3", got)
	}
	if _, ok := s.Get(last); !ok {
		t.Error("most recent job must survive eviction")
	}
}

// TestJobsNewestFirst: Jobs lists every retained job by id, newest first,
// on every call.
func TestJobsNewestFirst(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())

	sb, _ := litmus.ByName("SB")
	var want []string
	for i := 0; i < 8; i++ {
		v, err := s.Submit(SubmitRequest{Program: sb.P, JobSpec: JobSpec{Spec: backend.Spec{Model: "tso"}}})
		if err != nil {
			t.Fatal(err)
		}
		want = append([]string{v.ID}, want...)
	}
	for call := 0; call < 3; call++ {
		var got []string
		for _, v := range s.Jobs() {
			got = append(got, v.ID)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("Jobs() = %v, want newest first %v", got, want)
		}
	}
}

func TestVerdictCacheLRU(t *testing.T) {
	c := newVerdictCache(2)
	r := &core.Result{}
	c.put("a", r)
	c.put("b", r)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a must be resident")
	}
	c.put("c", r) // evicts b (least recently used)
	if _, ok := c.get("b"); ok {
		t.Error("b must have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s must be resident", k)
		}
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// Disabled cache is inert.
	d := newVerdictCache(-1)
	d.put("x", r)
	if _, ok := d.get("x"); ok {
		t.Error("disabled cache must not store")
	}
}

func mustModel(t *testing.T, name string) memmodel.Model {
	t.Helper()
	m, err := memmodel.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSubmitAttachesDiagnostics(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())

	// A store-buffering shape with an LW fence: under tso the fence is a
	// documented no-op, so the submission must carry a useless-fence
	// diagnostic and bump the vet-findings counter.
	b := prog.NewBuilder("diag")
	x, y := b.Loc("x"), b.Loc("y")
	t0 := b.Thread()
	t0.Store(x, prog.Const(1))
	t0.Fence(eg.FenceLW)
	t0.Load(y)
	t1 := b.Thread()
	t1.Store(y, prog.Const(1))
	t1.Load(x)
	p := b.MustBuild()

	v, err := s.Submit(SubmitRequest{Program: p, JobSpec: JobSpec{Spec: backend.Spec{Model: "tso"}}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	racy := false
	for _, d := range v.Diagnostics {
		if strings.Contains(d, "useless-fence") {
			found = true
		}
		if strings.Contains(d, "racy-pair") {
			racy = true
		}
	}
	if !found {
		t.Errorf("submission diagnostics lack useless-fence: %v", v.Diagnostics)
	}
	// Both threads touch x and y through plain accesses with a write on
	// each side, so the racy-pair lint must ride along on the job too.
	if !racy {
		t.Errorf("submission diagnostics lack racy-pair: %v", v.Diagnostics)
	}
	if got := s.Metrics().VetFindings.Load(); got < 1 {
		t.Errorf("VetFindings = %d, want >= 1", got)
	}
	done := waitState(t, s, v.ID)
	if len(done.Diagnostics) != len(v.Diagnostics) {
		t.Errorf("diagnostics changed across the job lifecycle: %v vs %v", done.Diagnostics, v.Diagnostics)
	}
}
