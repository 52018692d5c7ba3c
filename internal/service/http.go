package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/obs"
	"hmc/internal/prog"
)

// maxSubmitBytes bounds a submission body; litmus tests are tiny, and the
// parser is the service's untrusted-input boundary.
const maxSubmitBytes = 1 << 20

// submitJSON is the wire form of a job submission: either Source (a
// litmus test in the plain-text format) or Test (a built-in corpus test
// name) selects the program.
type submitJSON struct {
	Source        string `json:"source,omitempty"`
	Test          string `json:"test,omitempty"`
	Model         string `json:"model"`
	MaxExecutions int    `json:"max_executions,omitempty"`
	MaxEvents     int    `json:"max_events,omitempty"`
	MemoryBudget  int64  `json:"memory_budget,omitempty"`
	Workers       int    `json:"workers,omitempty"`
	Symmetry      bool   `json:"symmetry,omitempty"`
	TimeoutMS     int64  `json:"timeout_ms,omitempty"`
}

// jobJSON is the wire form of a job snapshot.
type jobJSON struct {
	ID            string           `json:"id"`
	State         JobState         `json:"state"`
	Program       string           `json:"program"`
	Fingerprint   string           `json:"fingerprint"`
	Model         string           `json:"model"`
	CacheHit      bool             `json:"cache_hit"`
	Resumed       bool             `json:"resumed,omitempty"`
	SubmittedAt   time.Time        `json:"submitted_at"`
	DurationMS    int64            `json:"duration_ms,omitempty"`
	Attempts      int              `json:"attempts,omitempty"`
	Error         string           `json:"error,omitempty"`
	Diagnostics   []string         `json:"diagnostics,omitempty"`
	EngineError   *engineErrorJSON `json:"engine_error,omitempty"`
	CrashArtifact string           `json:"crash_artifact,omitempty"`
	Result        *resultJSON      `json:"result,omitempty"`
	// Portfolio attestation: which backend's exhaustive verdict landed
	// first (with its outcome-set digest), the compact per-backend trail,
	// and — for quarantined jobs — the disagreement artifact's path.
	WinnerBackend      string       `json:"winner_backend,omitempty"`
	OutcomeDigest      string       `json:"outcome_digest,omitempty"`
	Attestation        []attestJSON `json:"attestation,omitempty"`
	QuarantineArtifact string       `json:"quarantine_artifact,omitempty"`
	// Progress is the latest exploration snapshot: live counters, rates and
	// the sampled phase breakdown while the job runs, the final snapshot
	// once it stops. Absent before the first snapshot and for cache hits.
	Progress *obs.ProgressSnapshot `json:"progress,omitempty"`
}

// engineErrorJSON carries a contained engine panic's diagnostics to the
// client. The stack is truncated to keep job payloads bounded; the full
// stack lives in the crash artifact.
type engineErrorJSON struct {
	Op          string `json:"op"`
	Panic       string `json:"panic"`
	Program     string `json:"program"`
	Fingerprint string `json:"fingerprint"`
	Model       string `json:"model"`
	Stack       string `json:"stack,omitempty"`
}

const maxStackBytes = 4096

// attestJSON is one backend's compact attestation record on a job
// payload: the verdict's comparable core without the full outcome list
// (which scales with the program; the complete verdicts live in the
// quarantine artifact when they matter).
type attestJSON struct {
	Backend       string `json:"backend"`
	Status        string `json:"status"`
	Reason        string `json:"reason,omitempty"`
	ElapsedMS     int64  `json:"elapsed_ms"`
	OutcomeDigest string `json:"outcome_digest,omitempty"`
	Outcomes      int    `json:"outcomes,omitempty"`
	Allowed       *bool  `json:"allowed,omitempty"`
	Assertion     string `json:"assertion,omitempty"`
	Exhaustive    bool   `json:"exhaustive,omitempty"`
}

// resultJSON is the wire form of an exploration outcome. Allowed is the
// litmus verdict (ExistsCount > 0); Exhaustive distinguishes a definitive
// verdict from the partial counts of a truncated or interrupted run.
type resultJSON struct {
	Executions        int      `json:"executions"`
	ExistsCount       int      `json:"exists_count"`
	ExistsDesc        string   `json:"exists_desc,omitempty"`
	Allowed           bool     `json:"allowed"`
	Blocked           int      `json:"blocked"`
	States            int      `json:"states"`
	MemoHits          int      `json:"memo_hits"`
	RevisitsTried     int      `json:"revisits_tried"`
	RevisitsTaken     int      `json:"revisits_taken"`
	Truncated         bool     `json:"truncated"`
	TruncatedReason   string   `json:"truncated_reason,omitempty"`
	Interrupted       bool     `json:"interrupted"`
	Exhaustive        bool     `json:"exhaustive"`
	AssertionFailures []string `json:"assertion_failures,omitempty"`
}

func toJobJSON(v JobView) jobJSON {
	out := jobJSON{
		ID:            v.ID,
		State:         v.State,
		Program:       v.Program,
		Fingerprint:   v.Fingerprint,
		Model:         v.Model,
		CacheHit:      v.CacheHit,
		Resumed:       v.Resumed,
		SubmittedAt:   v.Submitted,
		Attempts:      v.Attempts,
		Error:         v.Err,
		Diagnostics:   v.Diagnostics,
		CrashArtifact: v.CrashArtifact,
		Progress:      v.Progress,

		QuarantineArtifact: v.QuarantineArtifact,
	}
	if v.Winner != nil {
		out.WinnerBackend = v.Winner.Backend
		out.OutcomeDigest = v.Winner.OutcomeDigest
	}
	for _, att := range v.Attestation {
		aj := attestJSON{
			Backend:   att.Backend,
			Status:    string(att.Status),
			Reason:    att.Reason,
			ElapsedMS: att.Elapsed.Milliseconds(),
		}
		if vd := att.Verdict; vd != nil {
			aj.OutcomeDigest = vd.OutcomeDigest
			aj.Outcomes = len(vd.Outcomes)
			allowed := vd.Allowed
			aj.Allowed = &allowed
			aj.Assertion = string(vd.Assertion)
			aj.Exhaustive = vd.Exhaustive
		}
		out.Attestation = append(out.Attestation, aj)
	}
	if ee := v.EngineError; ee != nil {
		stack := ee.Stack
		if len(stack) > maxStackBytes {
			stack = stack[:maxStackBytes] + "\n[stack truncated; see crash artifact]"
		}
		out.EngineError = &engineErrorJSON{
			Op:          ee.Op,
			Panic:       fmt.Sprint(ee.PanicValue),
			Program:     ee.Program,
			Fingerprint: ee.Fingerprint,
			Model:       ee.Model,
			Stack:       stack,
		}
	}
	if !v.Finished.IsZero() {
		start := v.Started
		if start.IsZero() {
			start = v.Submitted
		}
		out.DurationMS = v.Finished.Sub(start).Milliseconds()
	}
	if r := v.Result; r != nil {
		rj := &resultJSON{
			Executions:      r.Executions,
			ExistsCount:     r.ExistsCount,
			ExistsDesc:      v.ExistsDesc,
			Allowed:         r.ExistsCount > 0,
			Blocked:         r.Blocked,
			States:          r.States,
			MemoHits:        r.MemoHits,
			RevisitsTried:   r.RevisitsTried,
			RevisitsTaken:   r.RevisitsTaken,
			Truncated:       r.Truncated,
			TruncatedReason: r.TruncatedReason,
			Interrupted:     r.Interrupted,
			Exhaustive:      r.Exhaustive(),
		}
		for _, e := range r.Errors {
			rj.AssertionFailures = append(rj.AssertionFailures,
				fmt.Sprintf("thread %d: %s", e.Thread, e.Msg))
		}
		out.Result = rj
	}
	return out
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs               submit a litmus source or corpus test
//	GET    /v1/jobs               list retained jobs
//	GET    /v1/jobs/{id}          poll one job
//	GET    /v1/jobs/{id}/progress long-poll live progress (?seq=N&wait=5s)
//	DELETE /v1/jobs/{id}          cancel a queued or running job
//	GET    /v1/models             available memory models
//	GET    /v1/tests              built-in corpus test names
//	GET    /healthz               liveness probe (200 while the process serves)
//	GET    /readyz                readiness probe (503 during replay or drain)
//	GET    /metrics               Prometheus text-format counters
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/tests", s.handleTests)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// writeJSON marshals v to a buffer *before* touching the response. The
// previous implementation streamed json.NewEncoder(w).Encode(v) after
// WriteHeader: an encode failure halfway through (one NaN anywhere in the
// payload) left the client a truncated 200 body that fails to parse, with
// the error swallowed and nothing counted. Buffering first means an encode
// failure costs a clean 500 with a valid JSON body instead, and
// hmcd_http_encode_errors_total records it.
func (s *Service) writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		s.metrics.HTTPEncodeErrors.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\n  \"error\": %q\n}\n", "internal: response encoding failed: "+err.Error())
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)+1))
	w.WriteHeader(status)
	buf = append(buf, '\n')
	w.Write(buf) //nolint:errcheck // client gone: nothing to do
}

func (s *Service) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitJSON
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	var p *prog.Program
	switch {
	case req.Source != "" && req.Test != "":
		s.writeError(w, http.StatusBadRequest, errors.New(`give "source" or "test", not both`))
		return
	case req.Source != "":
		var err error
		if p, err = litmus.Parse(req.Source); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("parse: %w", err))
			return
		}
	case req.Test != "":
		tc, ok := litmus.ByName(req.Test)
		if !ok {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("unknown corpus test %q", req.Test))
			return
		}
		p = tc.P
	default:
		s.writeError(w, http.StatusBadRequest, errors.New(`need a "source" litmus test or a corpus "test" name`))
		return
	}
	if req.Model == "" {
		req.Model = "imm"
	}
	view, err := s.Submit(SubmitRequest{
		Program:       p,
		Model:         req.Model,
		MaxExecutions: req.MaxExecutions,
		MaxEvents:     req.MaxEvents,
		MemoryBudget:  req.MemoryBudget,
		Workers:       req.Workers,
		Symmetry:      req.Symmetry,
		Timeout:       time.Duration(req.TimeoutMS) * time.Millisecond,
		Source:        req.Source,
		Test:          req.Test,
	})
	switch {
	case errors.Is(err, ErrCircuitOpen):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.BreakerCooldown.Seconds())))
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusAccepted
	if view.State.Terminal() {
		status = http.StatusOK // cache hit: born done
	}
	s.writeJSON(w, status, toJobJSON(view))
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	views := s.Jobs()
	out := make([]jobJSON, len(views))
	for i, v := range views {
		out[i] = toJobJSON(v)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	s.writeJSON(w, http.StatusOK, toJobJSON(view))
}

// progressWaitDefault and progressWaitMax bound the /progress long-poll:
// the handler parks until a new snapshot, the terminal transition, or the
// wait expires — whichever first — and always answers 200 with the current
// state, so clients chain requests without busy-polling.
const (
	progressWaitDefault = 25 * time.Second
	progressWaitMax     = time.Minute
)

// handleProgress serves GET /v1/jobs/{id}/progress?seq=N&wait=5s: it
// long-polls for a progress snapshot with seq greater than N (0 means
// "any"). The response carries the job state, the latest snapshot (null
// before the first one lands) and, once terminal, the full job record.
func (s *Service) handleProgress(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	afterSeq := 0
	if v := r.URL.Query().Get("seq"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad seq %q", v))
			return
		}
		afterSeq = n
	}
	wait := progressWaitDefault
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q (want a duration like 5s)", v))
			return
		}
		wait = min(d, progressWaitMax)
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	view, ok := s.WaitProgress(ctx, id, afterSeq)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", id))
		return
	}
	out := map[string]any{
		"id":       view.ID,
		"state":    view.State,
		"progress": view.Progress,
	}
	if view.State.Terminal() {
		out["job"] = toJobJSON(view)
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Get(id); !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", id))
		return
	}
	canceled := s.Cancel(id)
	view, _ := s.Get(id)
	s.writeJSON(w, http.StatusOK, map[string]any{"canceled": canceled, "job": toJobJSON(view)})
}

func (s *Service) handleModels(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"models": memmodel.Names()})
}

func (s *Service) handleTests(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"tests": litmus.Names()})
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"inflight": s.metrics.InFlight.Load(),
		"queue":    s.QueueDepth(),
		"cache": map[string]any{
			"entries":   s.cache.len(),
			"capacity":  s.cache.capacity(),
			"evictions": s.metrics.CacheEvictions.Load(),
		},
	})
}

// handleReady is the readiness probe: liveness (/healthz) answers 200 as
// long as the process serves, while readiness refuses traffic until the
// journal backlog has been re-enqueued, and again once draining starts —
// so a rolling restart routes new submissions elsewhere both while a
// replacement warms up and while the old daemon winds down.
// A journal running degraded (a write or fsync failed — disk full, dying
// device) still answers 200: the service keeps checking programs, only
// crash durability is suspended. The body says so, for operators and for
// probes that read it.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "not ready"})
		return
	}
	body := map[string]any{"status": "ready"}
	if s.journal != nil {
		if degraded, why := s.journal.degradedState(); degraded {
			body["status"] = "degraded"
			body["journal"] = why
		}
	}
	s.writeJSON(w, http.StatusOK, body)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writePrometheus(w, s.QueueDepth(), s.cache.len(), s.cache.capacity(), s.CrashArtifacts(), s.Ready())
}
