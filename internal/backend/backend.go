// Package backend puts the repo's independent consistency engines behind
// one pluggable interface so production verdicts can be cross-attested.
//
// Three engines implement Backend today: the GenMC-style DFS explorer
// (internal/core — the anchor, applicable to every request), the
// herd-style axiomatic enumerator (internal/axenum — exact but
// exponential, so event-count bounded) and the operational store-buffer
// explorer (internal/operational — SC/TSO/PSO machines only,
// small-program bounded). Each adapter normalizes its engine's native
// result into a Verdict whose comparable core is the *allowed-outcome
// set*: the canonical final-state keys of all complete executions, the
// same basis internal/crossval has always diffed. Two exhaustive
// verdicts for the same program and model must have identical outcome
// sets, identical exists-clause answers and compatible assertion
// results; anything else is an engine bug, which the Portfolio runner
// (portfolio.go) turns into a quarantined, reproducible artifact instead
// of a silently wrong answer.
package backend

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"time"

	"hmc/internal/core"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// ErrUnsupported is the sentinel wrapped by every applicability failure.
// The portfolio treats errors.Is(err, ErrUnsupported) as "skip this
// backend", never as a job failure.
var ErrUnsupported = errors.New("request outside this backend's domain")

// UnsupportedError is a typed applicability failure: which backend
// declined and why. It wraps ErrUnsupported.
type UnsupportedError struct {
	Backend string
	Reason  string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("backend %s: %s: %v", e.Backend, e.Reason, ErrUnsupported)
}

func (e *UnsupportedError) Unwrap() error { return ErrUnsupported }

// Unsupported builds a typed applicability failure.
func Unsupported(backend, format string, args ...any) error {
	return &UnsupportedError{Backend: backend, Reason: fmt.Sprintf(format, args...)}
}

// Spec is a checking job's model and exploration bounds: what a Backend
// receives, what the hmc flags and the hmcd wire format spell out, and —
// through Options — what the DFS explorer runs under. The JSON tags are
// the service's wire names. Bounds are DFS-shaped (they cut the
// exploration tree in an engine-specific order), so the alternate engines
// declare themselves unsupported whenever one is set — a bounded verdict
// is only comparable to itself.
type Spec struct {
	// Model is the memory-model name (memmodel registry).
	Model string `json:"model,omitempty"`
	// MaxExecutions, MaxEvents and MemoryBudget are DFS resource bounds;
	// when any is set only the anchor is applicable.
	MaxExecutions int   `json:"max_executions,omitempty"`
	MaxEvents     int   `json:"max_events,omitempty"`
	MemoryBudget  int64 `json:"memory_budget,omitempty"`
	// Workers is the DFS worker count (other engines are sequential).
	Workers int `json:"workers,omitempty"`
	// Symmetry enables DFS symmetry reduction. Orbit-collapsed final
	// states are a subset of the full set, so alternates skip.
	Symmetry bool `json:"symmetry,omitempty"`
}

// Options resolves the model and carries the bounds into the explorer's
// options; callers add the context, sinks and analyses of their run.
func (s Spec) Options() (core.Options, error) {
	m, err := memmodel.ByName(s.Model)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Model:         m,
		MaxExecutions: s.MaxExecutions,
		MaxEvents:     s.MaxEvents,
		MemoryBudget:  s.MemoryBudget,
		Workers:       s.Workers,
		Symmetry:      s.Symmetry,
	}, nil
}

// TriState is a three-valued analysis result: an engine that cannot
// decide (bounded run, over-approximate error detection) answers Unknown
// rather than guessing.
type TriState string

const (
	Pass    TriState = "pass"
	Fail    TriState = "fail"
	Unknown TriState = "unknown"
)

// Verdict is the normalized result every backend returns. The comparable
// core — Outcomes, Allowed, Assertion — is engine-independent; the work
// counters are engine-native and informational only.
type Verdict struct {
	// Backend and Model identify who produced the verdict for what.
	Backend string `json:"backend"`
	Model   string `json:"model"`
	// Outcomes is the sorted set of canonical final-state keys
	// (operational.FinalKey format, the crossval comparison basis) of
	// all complete executions. OutcomeDigest is a short hash of the set.
	Outcomes      []string `json:"outcomes"`
	OutcomeDigest string   `json:"outcome_digest"`
	// Allowed reports whether some complete execution satisfies the
	// program's exists clause.
	Allowed bool `json:"allowed"`
	// Assertion is the assertion-check result. The axiomatic enumerator
	// records error shapes per guessed value vector — an
	// over-approximation of reachable failures — so it answers Unknown
	// whenever it sees any; the DFS and operational engines are exact.
	Assertion       TriState `json:"assertion"`
	AssertionErrors []string `json:"assertion_errors,omitempty"`
	// Exhaustive reports complete coverage. Only exhaustive verdicts are
	// comparable; a truncated or interrupted run carries partial
	// counters and an indicative (but unattestable) outcome set.
	Exhaustive      bool   `json:"exhaustive"`
	TruncatedReason string `json:"truncated_reason,omitempty"`
	Interrupted     bool   `json:"interrupted,omitempty"`
	// Work counters, engine-native: Executions is complete executions
	// (DFS), distinct consistent executions (axenum) or terminal visits
	// (operational); Candidates is the axenum rf×co candidate count.
	Executions int           `json:"executions"`
	Blocked    int           `json:"blocked"`
	States     int64         `json:"states"`
	Candidates int           `json:"candidates,omitempty"`
	Elapsed    time.Duration `json:"elapsed_ns"`
}

// Backend is one consistency engine behind the portfolio.
type Backend interface {
	// Name is the stable identifier ("dfs", "axenum", "operational").
	Name() string
	// Applicable reports whether the backend can decide spec for p:
	// nil, or an error wrapping ErrUnsupported naming the reason.
	Applicable(p *prog.Program, spec Spec) error
	// Run checks p under spec. Cancelling ctx interrupts the run and
	// returns the partial verdict with Exhaustive=false. Engine panics
	// are contained to an *core.EngineError return.
	Run(ctx context.Context, p *prog.Program, spec Spec) (*Verdict, error)
}

// FinalKey canonicalizes a final state exactly like operational.FinalKey
// and axenum's finals — the shared comparison basis.
func FinalKey(fs prog.FinalState) string {
	return fmt.Sprintf("%v|%v", fs.Mem, fs.Regs)
}

// outcomes flattens a finals map into the sorted canonical key list.
func outcomes(finals map[string]prog.FinalState) []string {
	keys := make([]string, 0, len(finals))
	for k := range finals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Digest hashes a sorted outcome list into the short attestation digest
// carried on job payloads.
func Digest(keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Diff compares two exhaustive verdicts and describes the first
// disagreement ("" = agree). Non-exhaustive verdicts are incomparable
// and never disagree. Assertion answers conflict only on a hard
// Pass-vs-Fail split; Unknown is compatible with everything.
func Diff(a, b *Verdict) string {
	if a == nil || b == nil || !a.Exhaustive || !b.Exhaustive {
		return ""
	}
	if a.OutcomeDigest != b.OutcomeDigest {
		return outcomeDiff(a, b)
	}
	if a.Allowed != b.Allowed {
		return fmt.Sprintf("exists clause: %s=%v vs %s=%v", a.Backend, a.Allowed, b.Backend, b.Allowed)
	}
	if (a.Assertion == Pass && b.Assertion == Fail) || (a.Assertion == Fail && b.Assertion == Pass) {
		return fmt.Sprintf("assertion: %s=%s vs %s=%s", a.Backend, a.Assertion, b.Backend, b.Assertion)
	}
	return ""
}

// outcomeDiff spells out an allowed-outcome set mismatch: which
// final states each side claims that the other does not.
func outcomeDiff(a, b *Verdict) string {
	inA := make(map[string]bool, len(a.Outcomes))
	for _, k := range a.Outcomes {
		inA[k] = true
	}
	inB := make(map[string]bool, len(b.Outcomes))
	for _, k := range b.Outcomes {
		inB[k] = true
	}
	var onlyA, onlyB []string
	for _, k := range a.Outcomes {
		if !inB[k] {
			onlyA = append(onlyA, k)
		}
	}
	for _, k := range b.Outcomes {
		if !inA[k] {
			onlyB = append(onlyB, k)
		}
	}
	return fmt.Sprintf("allowed-outcome sets differ: only %s: %v; only %s: %v",
		a.Backend, onlyA, b.Backend, onlyB)
}

// Names lists the registered backend names, anchor first, plus the
// "portfolio" pseudo-backend accepted by the CLIs.
func Names() []string {
	return []string{"dfs", "axenum", "operational", "portfolio"}
}

// ByName resolves a single-engine backend by name. "portfolio" is not a
// Backend — callers wanting the racing runner use NewPortfolio.
func ByName(name string) (Backend, error) {
	switch name {
	case "dfs":
		return &DFS{}, nil
	case "axenum":
		return &Axenum{}, nil
	case "operational":
		return &Operational{}, nil
	default:
		return nil, fmt.Errorf("unknown backend %q (have %v)", name, Names())
	}
}
