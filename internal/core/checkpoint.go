package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"hmc/internal/eg"
	"hmc/internal/prog"
)

// This file implements exploration checkpoints: a versioned, deterministic
// serialization of the explorer's work state, built so a killed run can be
// resumed with nothing lost and nothing repeated.
//
// A checkpoint is taken at a pause rather than a hard stop. The drivers
// (drive in explorer.go) expand a state completely before they pop the
// next, and a pause (shared.request: a periodic EveryExecs checkpoint, a
// progress snapshot, or the end of a checkpointable run by context
// cancellation, deterministic fault injection via Options.FailAfter, or a
// whole-run truncation) is served between two pops: every driver parks
// its stack in the pending frontier. Then
//
//   - the memo contains exactly the states that were expanded, and
//   - the pending frontier holds every checked child not yet popped.
//
// So memo + pending + counters is a complete, sound description of the
// remaining work: resuming restores the memo and Stats and drives the
// pending graphs. Each unit of work — a consistency check, a revisit, a
// completed execution — happens exactly once, on one side of the cut,
// which is what the resume-equivalence tests assert.
//
// The pause loop in Explore then acts on exactly the reasons requested: it
// captures the final checkpoint and stops for an end, emits a periodic
// checkpoint or a progress snapshot and continues otherwise. A request
// that arrives while a sink runs stays set, so the next pop pauses again
// and serves it — a cancellation is never lost to a periodic pause.

// SchemaVersion identifies the engine's result semantics: the meaning of
// Stats counters, the state-key construction, and the exploration
// algorithm itself. Persisted artifacts produced under a different schema
// — checkpoints, cached verdicts, crash-artifact repro files — are
// dropped rather than trusted, so an upgraded binary never serves or
// resumes state computed by a semantically different engine.
const SchemaVersion = 1

// CheckpointVersion is the checkpoint wire-format version (the JSON field
// layout), bumped independently of SchemaVersion.
const CheckpointVersion = 1

// ErrCheckpointMismatch reports that a checkpoint cannot resume the given
// run: wrong engine schema, wrong program fingerprint, wrong model, or
// exploration options that change the semantics of the saved state.
var ErrCheckpointMismatch = errors.New("core: checkpoint does not match this run")

// DefaultCheckpointEvery is the periodic snapshot cadence, in executions,
// of hmc -checkpoint and of hmcd's job store (hmcd -checkpoint-every);
// EXPERIMENTS.md T14 measures its overhead.
const DefaultCheckpointEvery = 2000

// CheckpointOptions configures periodic snapshots (Options.Checkpoint).
type CheckpointOptions struct {
	// EveryExecs requests a snapshot roughly every that many completed
	// executions (≤0 disables periodic snapshots; interruptions and
	// truncations still produce a final checkpoint on the Result).
	EveryExecs int
	// Sink receives each periodic snapshot. It runs on the exploration
	// goroutine during a pause — every driver parked — so it may encode
	// and persist the checkpoint without racing the explorer. A nil Sink
	// disables periodic snapshots.
	Sink func(*Checkpoint)
}

// WireError is the serialized form of an ErrorReport: the witness graph
// goes through the eg wire codec (a live *eg.Graph has no exported fields
// and would silently serialize to nothing).
type WireError struct {
	Thread int             `json:"thread"`
	Msg    string          `json:"msg"`
	Graph  json.RawMessage `json:"graph,omitempty"`
}

// Checkpoint is a resumable snapshot of an exploration. It is fully
// deterministic for a given explorer state: memo and seen sets are
// sorted, pending graphs are encoded canonically (stamp renumbering) and
// sorted by their encoding — so encode→decode→encode is byte-identical.
type Checkpoint struct {
	Version     int    `json:"version"`
	Schema      int    `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	Model       string `json:"model"`
	// Opts is the signature of every Options field that affects the
	// semantics of the saved state (bounds, ablations, reductions —
	// see optsSignature). Transient knobs (Workers, MemoryBudget,
	// Context, callbacks) are excluded: they may differ across legs.
	Opts string `json:"opts"`
	// Stats carries the counters accumulated so far; assertion-failure
	// witnesses are stripped into Errors (wire form).
	Stats               Stats       `json:"stats"`
	Keys                []string    `json:"keys,omitempty"`
	DepViolationDetails []string    `json:"dep_violation_details,omitempty"`
	Truncated           bool        `json:"truncated,omitempty"`
	TruncatedReason     string      `json:"truncated_reason,omitempty"`
	Errors              []WireError `json:"errors,omitempty"`
	// Memo is the sorted set of fully-enumerated state keys; Seen is the
	// sorted complete-execution dedup set (present only under
	// DedupSafeguard). Pending is the unexplored frontier.
	Memo    []string          `json:"memo,omitempty"`
	Seen    []string          `json:"seen,omitempty"`
	Pending []json.RawMessage `json:"pending,omitempty"`
}

// Encode serializes the checkpoint to JSON.
func (c *Checkpoint) Encode() ([]byte, error) {
	return json.Marshal(c)
}

// DecodeCheckpoint parses and validates a checkpoint. It is strict — and
// panic-free on corrupt or truncated input (the FuzzCheckpointDecode
// contract): unknown fields, trailing garbage, version or schema drift,
// and structurally invalid graphs are all rejected with an error. The
// program/model/options match is checked later, at resume time, when the
// run they must match is known.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	cp := &Checkpoint{}
	if err := dec.Decode(cp); err != nil {
		return nil, fmt.Errorf("core: bad checkpoint: %w", err)
	}
	if dec.More() {
		return nil, errors.New("core: bad checkpoint: trailing data")
	}
	if err := cp.checkVersion(); err != nil {
		return nil, err
	}
	// Witness graphs travel only in wire form; a hand-crafted Stats.Errors
	// list would smuggle in unvalidated live graphs.
	cp.Stats.Errors = nil
	for i, raw := range cp.Pending {
		if _, err := decodeWireGraph(raw); err != nil {
			return nil, fmt.Errorf("core: checkpoint pending graph %d: %w", i, err)
		}
	}
	if _, err := DecodeErrorReports(cp.Errors); err != nil {
		return nil, err
	}
	return cp, nil
}

// EncodeErrorReports converts assertion-failure reports to wire form.
func EncodeErrorReports(errs []ErrorReport) []WireError {
	if len(errs) == 0 {
		return nil
	}
	out := make([]WireError, 0, len(errs))
	for _, er := range errs {
		we := WireError{Thread: er.Thread, Msg: er.Msg}
		if er.Graph != nil {
			data, _ := json.Marshal(eg.EncodeGraph(er.Graph))
			we.Graph = data
		}
		out = append(out, we)
	}
	return out
}

// DecodeErrorReports converts wire-form reports back, re-validating each
// witness graph.
func DecodeErrorReports(ws []WireError) ([]ErrorReport, error) {
	if len(ws) == 0 {
		return nil, nil
	}
	out := make([]ErrorReport, 0, len(ws))
	for i, we := range ws {
		er := ErrorReport{Thread: we.Thread, Msg: we.Msg}
		if len(we.Graph) > 0 {
			g, err := decodeWireGraph(we.Graph)
			if err != nil {
				return nil, fmt.Errorf("core: checkpoint error witness %d: %w", i, err)
			}
			er.Graph = g
		}
		out = append(out, er)
	}
	return out, nil
}

func decodeWireGraph(raw json.RawMessage) (*eg.Graph, error) {
	var wg eg.WireGraph
	if err := json.Unmarshal(raw, &wg); err != nil {
		return nil, err
	}
	return wg.Decode()
}

// optsSignature renders the Options fields that determine what the saved
// state *means* — bounds, ablations, reductions, key collection. Workers
// and MemoryBudget are deliberately absent: parallelism only reorders the
// same work, and the memory budget is a property of the machine and
// moment, not of the exploration (a run truncated by it resumes under
// whatever budget the new process has).
func optsSignature(o Options) string {
	return fmt.Sprintf("steps=%d|max=%d|maxev=%d|stoperr=%v|dedup=%v|porf=%v|keys=%v|static=%v|deps=%v|symm=%v",
		o.MaxSteps, o.MaxExecutions, o.MaxEvents, o.StopOnError, o.DedupSafeguard,
		o.PorfOnlyRevisits, o.CollectKeys, o.StaticAnalysis, o.CheckDeps, o.Symmetry)
}

// capture snapshots the exploration state with the given pending
// frontier. Called only during a pause (every driver parked); the lock
// guards against the context watcher and keeps the rule simple.
func (e *explorer) capture(frontier []*eg.Graph) *Checkpoint {
	e.sh.mu.Lock()
	defer e.sh.mu.Unlock()
	res := e.sh.res
	cp := &Checkpoint{
		Version:             CheckpointVersion,
		Schema:              SchemaVersion,
		Fingerprint:         e.p.Fingerprint(),
		Model:               e.opts.Model.Name(),
		Opts:                optsSignature(e.opts),
		Stats:               res.Stats,
		Keys:                append([]string(nil), res.Keys...),
		DepViolationDetails: append([]string(nil), res.DepViolationDetails...),
		Truncated:           res.Truncated,
		TruncatedReason:     res.TruncatedReason,
		Errors:              EncodeErrorReports(res.Stats.Errors),
	}
	cp.Stats.Errors = nil
	cp.Memo = sortedSetKeys(e.sh.memo)
	if e.sh.seen != nil {
		cp.Seen = sortedSetKeys(e.sh.seen)
	}
	for _, g := range frontier {
		data, _ := json.Marshal(eg.EncodeGraph(g))
		cp.Pending = append(cp.Pending, json.RawMessage(data))
	}
	sort.Slice(cp.Pending, func(i, j int) bool {
		return bytes.Compare(cp.Pending[i], cp.Pending[j]) < 0
	})
	return cp
}

// Compatible reports whether cp can resume exploring p under opts: the
// wire version, engine schema, program fingerprint, model and semantic
// options must all match. A mismatch returns ErrCheckpointMismatch
// (wrapped). Explore makes this check itself before restoring; a caller
// that announces a resume makes it first, so it announces only a resume
// that can happen.
func (cp *Checkpoint) Compatible(p *prog.Program, opts Options) error {
	if cp == nil {
		return errors.New("core: Options.ResumeFrom is nil")
	}
	if opts.Model == nil {
		return errors.New("core: Options.Model is required")
	}
	if err := cp.checkVersion(); err != nil {
		return err
	}
	if fp := p.Fingerprint(); cp.Fingerprint != fp {
		return fmt.Errorf("%w: checkpoint fingerprint %.12s, program is %.12s", ErrCheckpointMismatch, cp.Fingerprint, fp)
	}
	if name := opts.Model.Name(); cp.Model != name {
		return fmt.Errorf("%w: checkpoint model %q, run wants %q", ErrCheckpointMismatch, cp.Model, name)
	}
	if sig := optsSignature(opts); cp.Opts != sig {
		return fmt.Errorf("%w: checkpoint options %q, run wants %q", ErrCheckpointMismatch, cp.Opts, sig)
	}
	return nil
}

// checkVersion rejects a checkpoint written in another wire format or by
// an engine with other result semantics.
func (cp *Checkpoint) checkVersion() error {
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("%w: wire version %d, engine reads %d", ErrCheckpointMismatch, cp.Version, CheckpointVersion)
	}
	if cp.Schema != SchemaVersion {
		return fmt.Errorf("%w: engine schema %d, this binary is %d", ErrCheckpointMismatch, cp.Schema, SchemaVersion)
	}
	return nil
}

// restore validates cp against this run (Compatible, then the pending
// graphs' shapes) and installs its state into the explorer, returning the
// pending frontier to drive. A mismatch returns ErrCheckpointMismatch
// (wrapped) and leaves the explorer untouched.
func (e *explorer) restore(cp *Checkpoint) ([]*eg.Graph, error) {
	if err := cp.Compatible(e.p, e.opts); err != nil {
		return nil, err
	}
	frontier := make([]*eg.Graph, 0, len(cp.Pending))
	for i, raw := range cp.Pending {
		g, err := decodeWireGraph(raw)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint pending graph %d: %w", i, err)
		}
		if g.NumThreads() != len(e.p.Threads) || g.NumLocs() != e.p.NumLocs {
			return nil, fmt.Errorf("%w: pending graph %d is %d threads x %d locations, program is %d x %d",
				ErrCheckpointMismatch, i, g.NumThreads(), g.NumLocs(), len(e.p.Threads), e.p.NumLocs)
		}
		frontier = append(frontier, g)
	}
	errs, err := DecodeErrorReports(cp.Errors)
	if err != nil {
		return nil, err
	}
	sh := e.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.res.Stats = cp.Stats
	sh.res.Stats.Errors = errs
	sh.res.Keys = append([]string(nil), cp.Keys...)
	sh.res.DepViolationDetails = append([]string(nil), cp.DepViolationDetails...)
	sh.res.Truncated = cp.Truncated
	sh.res.TruncatedReason = cp.TruncatedReason
	// A memory-budget truncation is transient, not a statement about the
	// state space: its end request checkpointed the whole in-flight frontier
	// before anything was dropped, so no exploration was lost. Clear the
	// flag — if this run completes the frontier it genuinely is
	// exhaustive, and if the budget (or another bound) trips again it will
	// re-mark the result itself. MaxEvents and MaxExecutions truncations
	// stay: those record work the exploration really cut off.
	if cp.TruncatedReason == TruncMemoryBudget {
		sh.res.Truncated = false
		sh.res.TruncatedReason = ""
	}
	sh.memo = make(map[string]bool, len(cp.Memo))
	for _, k := range cp.Memo {
		sh.memo[k] = true
	}
	if e.opts.DedupSafeguard {
		sh.seen = make(map[string]bool, len(cp.Seen))
		for _, k := range cp.Seen {
			sh.seen[k] = true
		}
	}
	return frontier, nil
}

func sortedSetKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
