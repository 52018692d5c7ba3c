package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hmc/internal/core"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
	"hmc/internal/service"
)

// serveClients is the closed loop's client count, matched to the service's
// two workers.
const serveClients = 2

// serveRef is the oracle for one (program, model) pair, computed in-process
// during setup.
type serveRef struct {
	allowed bool
	stats   core.Stats
}

type serveBench struct {
	pairs  []serveJob
	seq    []int
	svc    *service.Service
	srv    *http.Server
	served chan struct{} // closed when srv.Serve returns
	base   string
	client *http.Client
	next   atomic.Int64 // position in seq
}

// setupServe derives the job sequence and every pair's reference verdict
// from seed, starts the service behind a loopback listener and submits
// every distinct pair once, untimed.
func setupServe(seed int64) (bench, error) {
	b := &serveBench{}
	var err error
	if b.pairs, b.seq, err = jobSequence(seed); err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{Workers: serveClients, MaxCrashArtifacts: -1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(context.Background()) //nolint:errcheck // setup already failed
		return nil, err
	}
	b.svc = svc
	b.srv = &http.Server{Handler: svc.Handler()}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		b.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	b.base = "http://" + ln.Addr().String()
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	for i := range b.pairs {
		if out := b.do(i, nil, 0); out.err != "" {
			b.close()
			return nil, fmt.Errorf("warm-up %s: %s", b.pairs[i].label(), out.err)
		}
	}
	return b, nil
}

func (j serveJob) label() string {
	if j.Test != "" {
		return j.Test + "/" + j.Model
	}
	return strings.SplitN(j.Source, "\n", 2)[0][len("name "):] + "/" + j.Model
}

// reference explores one pair in-process. A corpus pair must also agree
// with the corpus Allowed map.
func reference(j serveJob) (serveRef, error) {
	var p *prog.Program
	want, hasWant := false, false
	if j.Test != "" {
		tc, ok := litmus.ByName(j.Test)
		if !ok {
			return serveRef{}, fmt.Errorf("no corpus test %q", j.Test)
		}
		p, want, hasWant = tc.P, tc.Allowed[j.Model], true
	} else {
		var err error
		if p, err = litmus.Parse(j.Source); err != nil {
			return serveRef{}, fmt.Errorf("generated source does not parse: %w\n%s", err, j.Source)
		}
	}
	m, err := memmodel.ByName(j.Model)
	if err != nil {
		return serveRef{}, err
	}
	res, err := core.Explore(p, core.Options{Model: m, Workers: 1})
	if err != nil {
		return serveRef{}, fmt.Errorf("reference %s: %w", j.label(), err)
	}
	ref := serveRef{allowed: res.ExistsCount > 0, stats: res.Stats}
	if !res.Exhaustive() || (hasWant && ref.allowed != want) {
		return serveRef{}, fmt.Errorf("reference %s: allowed=%v exhaustive=%v, corpus says %v", j.label(), ref.allowed, res.Exhaustive(), want)
	}
	return ref, nil
}

func (b *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.srv.Shutdown(ctx) //nolint:errcheck // best effort at exit
	<-b.served
	b.svc.Shutdown(ctx) //nolint:errcheck // best effort at exit
	b.client.CloseIdleConnections()
}

// jobJSON is the part of the service's job record the client reads.
type jobJSON struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error"`
	Result   *struct {
		Executions int  `json:"executions"`
		Allowed    bool `json:"allowed"`
		Exhaustive bool `json:"exhaustive"`
	} `json:"result"`
}

// outcome is one submission as the client saw it.
type outcome struct {
	pair       int
	hit        bool
	executions int
	submit     time.Duration    // POST round trip
	latency    time.Duration    // POST until the client holds a terminal state
	err        string           // non-empty: failed, refused or wrong
	view       *service.JobView // the service's record (traced runs only)
}

// do submits pair i and follows it to a terminal state with the progress
// long-poll, then checks the verdict against the reference. With a tracer
// it records the HTTP spans and, from Service.Get, the service's own queue
// and run intervals, and checks the service's Stats against the reference.
func (b *serveBench) do(i int, tr *tracer, jobID int) outcome {
	j := b.pairs[i]
	ref := j.ref
	out := outcome{pair: i}
	jobSpan := 0
	if tr != nil {
		jobSpan = tr.reserve()
		jobStart := tr.now()
		defer func() { tr.addReserved(jobSpan, "job "+j.label(), 0, jobID, jobStart, tr.now()) }()
	}
	body, _ := json.Marshal(map[string]string{"test": j.Test, "source": j.Source, "model": j.Model})
	start := time.Now()
	resp, err := b.client.Post(b.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	var job jobJSON
	if err == nil {
		err = decode(resp, &job, http.StatusOK, http.StatusAccepted)
	}
	out.submit = time.Since(start)
	if tr != nil {
		tr.add("http POST /v1/jobs", jobSpan, jobID, tr.at(start), tr.at(start.Add(out.submit)))
	}
	seq := 0
	for err == nil && !service.JobState(job.State).Terminal() {
		t0 := time.Now()
		var poll struct {
			State    string             `json:"state"`
			Progress *struct{ Seq int } `json:"progress"`
			Job      *jobJSON           `json:"job"`
		}
		resp, err = b.client.Get(fmt.Sprintf("%s/v1/jobs/%s/progress?seq=%d&wait=30s", b.base, job.ID, seq))
		if err == nil {
			err = decode(resp, &poll, http.StatusOK)
		}
		if tr != nil {
			tr.add("http GET /v1/jobs/{id}/progress", jobSpan, jobID, tr.at(t0), tr.now())
		}
		if poll.Progress != nil {
			seq = poll.Progress.Seq
		}
		if err == nil && poll.Job != nil {
			job = *poll.Job
		}
	}
	out.latency = time.Since(start)
	switch {
	case err != nil:
		out.err = err.Error()
	case job.State != string(service.StateDone) || job.Result == nil:
		out.err = fmt.Sprintf("state %s %s", job.State, job.Error)
	case !job.Result.Exhaustive || job.Result.Allowed != ref.allowed || job.Result.Executions != ref.stats.Executions:
		out.err = fmt.Sprintf("verdict allowed=%v executions=%d exhaustive=%v, reference allowed=%v executions=%d",
			job.Result.Allowed, job.Result.Executions, job.Result.Exhaustive, ref.allowed, ref.stats.Executions)
	}
	if out.err != "" {
		return out
	}
	out.hit = job.CacheHit
	out.executions = job.Result.Executions
	if tr == nil {
		return out
	}
	view, ok := b.svc.Get(job.ID)
	switch {
	case !ok || view.Result == nil:
		out.err = "job gone from Service.Get"
	case !reflect.DeepEqual(view.Result.Stats, ref.stats):
		out.err = fmt.Sprintf("service stats %+v differ from the untraced reference %+v", view.Result.Stats, ref.stats)
	}
	out.view = &view
	if !out.hit && !view.Started.IsZero() {
		tr.add("service queue", jobSpan, jobID, tr.at(view.Submitted), tr.at(view.Started))
		tr.add("service run", jobSpan, jobID, tr.at(view.Started), tr.at(view.Finished))
	}
	return out
}

// decode reads a JSON response whose status must be one of want.
func decode(resp *http.Response, v any, want ...int) error {
	defer resp.Body.Close()
	for _, w := range want {
		if resp.StatusCode == w {
			return json.NewDecoder(resp.Body).Decode(v)
		}
	}
	var e struct{ Error string }
	json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck // the status already says it failed
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, e.Error)
}

// tally is a closed loop's account of its submissions. Outcomes are
// folded in as they finish instead of kept, so the run's memory grows by a
// few floats per verdict, not by a record: peak_rss_mb should show the
// service, not this bookkeeping.
type tally struct {
	latMS, hitMS, missMS           []float64  // checked verdicts
	submitMS, queueMS, runMS, ovMS []float64  // traced runs only
	execs, misses                  int        // executions the service explored: a hit explores nothing
	stats                          core.Stats // summed service Stats of misses (traced runs only)
	fails                          []outcome
}

func (t *tally) fold(o outcome) {
	if o.err != "" {
		t.fails = append(t.fails, o)
		return
	}
	ms := float64(o.latency) / 1e6
	t.latMS = append(t.latMS, ms)
	if o.hit {
		t.hitMS = append(t.hitMS, ms)
	} else {
		t.missMS = append(t.missMS, ms)
		t.execs += o.executions
		t.misses++
	}
	v := o.view
	if v == nil {
		return
	}
	t.submitMS = append(t.submitMS, float64(o.submit)/1e6)
	t.ovMS = append(t.ovMS, float64(o.latency-v.Finished.Sub(v.Submitted))/1e6)
	if !o.hit {
		t.queueMS = append(t.queueMS, float64(v.Started.Sub(v.Submitted))/1e6)
		t.runMS = append(t.runMS, float64(v.Finished.Sub(v.Started))/1e6)
		addStats(&t.stats, &v.Result.Stats)
	}
}

// loop runs the closed loop: serveClients clients each submit the next job
// of the sequence as soon as their previous one is terminal, until d has
// passed.
func (b *serveBench) loop(d time.Duration, rep *report, tr *tracer) (*tally, time.Duration) {
	t := &tally{}
	var mu sync.Mutex
	var jobIDs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				k := b.next.Add(1) - 1
				o := b.do(b.seq[k%int64(len(b.seq))], tr, int(jobIDs.Add(1)))
				mu.Lock()
				t.fold(o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	rep.ok(len(t.latMS))
	for _, o := range t.fails {
		rep.fail(b.pairs[o.pair].label(), o.err)
	}
	return t, wall
}

func (b *serveBench) measure(d time.Duration, rep *report) {
	slices, cal := runSliced(d, func(n time.Duration) loopStats {
		t, wall := b.loop(n, rep, nil)
		return loopStats{latMS: t.latMS, execs: t.execs, wall: wall}
	})
	setCalibrated(rep, slices, cal)
}

func (b *serveBench) trace(d time.Duration, rep *report, tr *tracer) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	u, _ := b.loop(d/2, rep, nil)
	runtime.ReadMemStats(&after)
	setGC(rep, loopStats{
		latMS:   u.latMS,
		execs:   u.execs,
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		pauseNS: after.PauseTotalNs - before.PauseTotalNs,
	})

	m0, err := b.scrape()
	if err != nil {
		rep.fail("GET /metrics", err.Error())
	}
	t, _ := b.loop(d-d/2, rep, tr)
	m1, err := b.scrape()
	if err != nil {
		rep.fail("GET /metrics", err.Error())
	}

	setP50 := func(name string, xs []float64) {
		v, n := quantile(xs, 0.5)
		rep.set(name, v, "ms", n)
	}
	setP50("service.submit_ms", t.submitMS)
	setP50("service.queue_ms", t.queueMS)
	setP50("service.run_ms", t.runMS)
	setP50("service.overhead_ms", t.ovMS)
	setP50("service.hit_p50_ms", t.hitMS)
	setP50("service.miss_p50_ms", t.missMS)
	hits := m1["hmcd_cache_hits_total"] - m0["hmcd_cache_hits_total"]
	lookups := hits + m1["hmcd_cache_misses_total"] - m0["hmcd_cache_misses_total"]
	rep.set("service.cache_hit_frac", ratio(hits, lookups), "ratio", 0)
	rep.set("service.rejected", m1["hmcd_jobs_rejected_total"]-m0["hmcd_jobs_rejected_total"], "count", 0)

	// The core counters come from the service's own Stats. The memmodel,
	// eg and interp probes need the timing wrapper, which the service does
	// not take, so they read 0 here.
	setCore(rep, &t.stats, float64(t.misses))
	up50, _ := quantile(u.latMS, 0.5)
	tp50, n := quantile(t.latMS, 0.5)
	rep.set("trace.overhead_ms", tp50-up50, "ms", 0)
	rep.note("untraced p50 %.3f ms (n=%d), traced p50 %.3f ms (n=%d)", up50, len(u.latMS), tp50, n)
}

// scrape reads the service's Prometheus counters.
func (b *serveBench) scrape() (map[string]float64, error) {
	resp, err := b.client.Get(b.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if _, ok := m["hmcd_cache_hits_total"]; !ok {
		return nil, errors.New("no hmcd_cache_hits_total in /metrics")
	}
	return m, nil
}
