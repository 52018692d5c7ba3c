package service

import (
	"context"
	"fmt"
	"time"

	"hmc/internal/backend"
	"hmc/internal/core"
)

// disagreementError carries a confirmed cross-backend disagreement out of
// an exploration attempt. It takes the error path through runJob's
// terminal switch on purpose: an errored job never reaches the cache.put
// branch, so a disagreeing verdict can never be served twice.
type disagreementError struct {
	out *backend.Outcome
}

func (e *disagreementError) Error() string {
	d := e.out.Disagreement
	return fmt.Sprintf("service: backend disagreement (%s vs %s): %s — verdict quarantined, not served",
		d.Winner.Backend, d.Dissenter.Backend, d.Diff)
}

// portfolioBackendTimeout is the per-run deadline for the non-anchor
// backends; the anchor is bounded only by the job.
const portfolioBackendTimeout = 30 * time.Second

// alternateBackends returns the non-anchor engines of the portfolio:
// injected mocks in tests, the standard axiomatic + operational pair
// otherwise.
func (s *Service) alternateBackends() []backend.Backend {
	if s.alternates != nil {
		return s.alternates
	}
	return []backend.Backend{&backend.Axenum{}, &backend.Operational{}}
}

// explorePortfolio runs one exploration attempt through the backend
// portfolio. The DFS anchor carries the job's checkpoint and progress
// sinks and its raw core.Result is what the job serves — byte-identical
// to the single-engine path — while the alternates race it and
// cross-attest whatever verdict lands first. A clean run returns the raw
// result; a confirmed disagreement returns a disagreementError that
// quarantines the job.
func (s *Service) explorePortfolio(ctx context.Context, j *Job, copts core.Options) (*core.Result, error) {
	var raw *core.Result
	anchor := &backend.DFS{
		Tune: func(o *core.Options) {
			o.Checkpoint = copts.Checkpoint
			o.Progress = copts.Progress
		},
		OnResult: func(res *core.Result) { raw = res },
	}
	pf := backend.NewPortfolio(backend.PortfolioOptions{
		Backends:       append([]backend.Backend{anchor}, s.alternateBackends()...),
		BackendTimeout: portfolioBackendTimeout,
		OnWinner: func(v *backend.Verdict) {
			// Surfaced immediately for job polls; the terminal commit still
			// waits for the cross-checkers.
			s.mu.Lock()
			j.winner = v
			s.mu.Unlock()
		},
	})
	out, err := pf.Run(ctx, j.req.Program, j.req.Spec)
	if out != nil {
		s.recordAttestation(j, out)
	}
	if err != nil {
		return raw, err
	}
	if out.Disagreement != nil {
		return raw, &disagreementError{out: out}
	}
	return raw, nil
}

// recordAttestation publishes the attestation trail on the job and folds
// the per-backend counters and latency observations into the metrics.
func (s *Service) recordAttestation(j *Job, out *backend.Outcome) {
	for _, att := range out.Attempts {
		if att.Status == backend.AttemptSkipped {
			continue
		}
		s.metrics.BackendRuns.Add(1)
		switch att.Status {
		case backend.AttemptWon:
			s.metrics.BackendWins.Add(1)
		case backend.AttemptTimeout:
			s.metrics.BackendTimeouts.Add(1)
		case backend.AttemptDisagreed:
			s.metrics.BackendDisagreements.Add(1)
		}
		s.metrics.observeBackendLatency(att.Backend, att.Elapsed.Seconds())
	}
	s.mu.Lock()
	j.attestation = out.Attempts
	if out.Verdict != nil {
		j.winner = out.Verdict
	}
	s.mu.Unlock()
}
