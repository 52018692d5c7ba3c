// Command hmcd is the model-checking daemon: a long-running HTTP service
// over the HMC explorer. Clients submit litmus tests (plain-text source
// or built-in corpus names), poll for verdicts, and scrape metrics;
// repeat submissions of an already-verified program are answered from a
// content-addressed verdict cache, and every job runs under its own
// deadline so one oversized exploration cannot wedge the service. Each
// accepted submission is also statically vetted (internal/analyze): the
// job payload carries a "diagnostics" list of advisory lint findings —
// useless fences under the chosen model, dead stores, vacuous
// assertions, and the like — without ever blocking the job.
//
// Usage:
//
//	hmcd [-addr :8433] [-queue 64] [-workers 2] [-cache 128]
//	     [-timeout 30s] [-max-timeout 5m]
//	     [-crash-dir hmcd-crashes] [-crash-max 32] [-retries 2]
//	     [-retry-backoff 50ms] [-breaker-threshold 3] [-breaker-cooldown 10m]
//	     [-progress-every 1s] [-pprof 127.0.0.1:6060]
//	     [-chaos-plan plan.json]
//	     [-portfolio] [-portfolio-timeout 30s] [-portfolio-grace 0]
//	     [-quarantine-dir hmcd-quarantine] [-quarantine-max 32]
//
// Fault containment: an engine panic fails only its own job — the panic
// is recovered into a structured engine_error on the job payload and a
// replayable crash artifact under -crash-dir (replay with `hmc -repro`);
// a program that repeatedly crashes the engine trips a per-fingerprint
// circuit breaker, and memory-budget truncations are retried with backoff.
//
// Endpoints (see internal/service for the full API):
//
//	POST   /v1/jobs               {"source": "...", "model": "imm", "timeout_ms": 5000}
//	GET    /v1/jobs/{id}          poll status, result and live progress
//	GET    /v1/jobs/{id}/progress long-poll progress snapshots (?seq=N&wait=5s)
//	DELETE /v1/jobs/{id}          cancel
//	GET    /v1/models    GET /v1/tests    GET /healthz    GET /metrics
//
// Verdict portfolio: with -portfolio, every non-resumed job is raced across
// all applicable backends (the DFS anchor, the axiomatic enumerator, the
// operational store-buffer machines; see internal/backend). The anchor's
// result is still what the job serves, but the job payload gains a
// per-backend attestation trail and the winning verdict's outcome digest.
// If two exhaustive backends disagree, the job fails with the distinct
// "quarantined" state: neither verdict is served or cached, both are
// written to a replayable artifact under -quarantine-dir (replay with
// `hmc -repro`), hmcd_backend_disagreements_total is bumped, and the
// program's fingerprint trips toward the circuit breaker.
//
// Parallelism: a submission's "workers" field explores one job on that
// many goroutines over a shared state memo, and -workers sets how many
// jobs run at once. -chaos-plan (dev only) injects a deterministic fault
// plan into the journal file to rehearse its degraded mode.
//
// Observability: running jobs publish progress snapshots every
// -progress-every (counters, rates, sampled phase breakdown), served in
// job polls, the /progress long-poll and the /metrics histograms; -pprof
// serves net/http/pprof on a separate, private listener.
//
// SIGINT/SIGTERM drains gracefully: the listener stops, queued and
// running jobs get the drain grace period to finish, then are cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hmc/internal/faultinject"
	"hmc/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "hmcd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is cancelled, then drains.
// ready, when non-nil, is called with the bound address once the listener
// is accepting (tests bind ":0" and need the resolved port).
func run(ctx context.Context, args []string, out io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("hmcd", flag.ContinueOnError)
	addr := fs.String("addr", ":8433", "listen address")
	queue := fs.Int("queue", 64, "job queue capacity (full queue rejects with 503)")
	workers := fs.Int("workers", 2, "jobs explored concurrently")
	cache := fs.Int("cache", 128, "verdict cache entries (negative disables)")
	defTimeout := fs.Duration("timeout", 30*time.Second, "default per-job deadline (0 = none)")
	maxTimeout := fs.Duration("max-timeout", 5*time.Minute, "cap on requested per-job deadlines (0 = none)")
	drainGrace := fs.Duration("drain", 10*time.Second, "shutdown grace before in-flight jobs are cancelled")
	crashDir := fs.String("crash-dir", "hmcd-crashes", "directory for engine-crash repro artifacts")
	crashMax := fs.Int("crash-max", 32, "max crash artifacts kept, oldest evicted (negative disables capture)")
	retries := fs.Int("retries", 2, "max exploration attempts after transient memory-budget truncation")
	retryBackoff := fs.Duration("retry-backoff", 50*time.Millisecond, "pause before retrying a memory-truncated job")
	breakerThreshold := fs.Int("breaker-threshold", 3, "engine crashes on one program before its submissions are rejected (negative disables)")
	breakerCooldown := fs.Duration("breaker-cooldown", 10*time.Minute, "how long a crash-looping program stays rejected")
	journalDir := fs.String("journal", "", "write-ahead journal directory; makes the daemon durable across restarts (empty disables)")
	journalMax := fs.Int64("journal-max-bytes", 4<<20, "journal file size before rotation/compaction")
	checkpointEvery := fs.Int("checkpoint-every", 2000, "executions between journaled exploration checkpoints")
	progressEvery := fs.Duration("progress-every", time.Second, "cadence of live job progress snapshots (negative disables)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this separate address (empty disables)")
	chaosPlan := fs.String("chaos-plan", "", "dev only: JSON fault-injection plan (internal/faultinject) applied to the journal")
	portfolio := fs.Bool("portfolio", false, "race every applicable backend per job and cross-attest verdicts; disagreements are quarantined, never served")
	portfolioTimeout := fs.Duration("portfolio-timeout", 30*time.Second, "per-run deadline for non-anchor portfolio backends")
	portfolioGrace := fs.Duration("portfolio-grace", 0, "how long losing backends keep cross-checking after a win (0 = default, negative cancels immediately)")
	quarantineDir := fs.String("quarantine-dir", "hmcd-quarantine", "directory for backend-disagreement repro artifacts")
	quarantineMax := fs.Int("quarantine-max", 32, "max quarantine artifacts kept, oldest evicted (negative disables capture)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var plan *faultinject.Plan
	if *chaosPlan != "" {
		var err error
		if plan, err = faultinject.LoadPlan(*chaosPlan); err != nil {
			return fmt.Errorf("chaos plan: %w", err)
		}
		fmt.Fprintf(out, "hmcd: CHAOS PLAN %s active (seed %d) — dev harness, never production\n", *chaosPlan, plan.Seed)
	}

	svc, err := service.New(service.Config{
		QueueSize:            *queue,
		Workers:              *workers,
		CacheSize:            *cache,
		DefaultTimeout:       *defTimeout,
		MaxTimeout:           *maxTimeout,
		CrashDir:             *crashDir,
		MaxCrashArtifacts:    *crashMax,
		MaxAttempts:          *retries,
		RetryBackoff:         *retryBackoff,
		BreakerThreshold:     *breakerThreshold,
		BreakerCooldown:      *breakerCooldown,
		JournalDir:           *journalDir,
		JournalMaxBytes:      *journalMax,
		CheckpointEveryExecs: *checkpointEvery,
		ProgressEvery:        *progressEvery,
		ChaosPlan:            plan,

		Portfolio:               *portfolio,
		PortfolioBackendTimeout: *portfolioTimeout,
		PortfolioGrace:          *portfolioGrace,
		QuarantineDir:           *quarantineDir,
		MaxQuarantineArtifacts:  *quarantineMax,
	})
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}

	// pprof gets its own listener and mux so the profiling surface is never
	// reachable through the public API address — bind it to localhost (or a
	// firewalled port) independently of -addr. The explicit mux avoids the
	// net/http/pprof side effect of registering on http.DefaultServeMux.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Handler: pmux}
		defer psrv.Close()
		fmt.Fprintf(out, "hmcd: pprof on %s\n", pln.Addr())
		go psrv.Serve(pln) //nolint:errcheck // best-effort diagnostics listener
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Report the effective configuration: out-of-range flag values (zero
	// or negative workers/queue) are clamped by the service's defaults.
	eff := svc.Config()
	fmt.Fprintf(out, "hmcd: listening on %s (workers=%d queue=%d cache=%d timeout=%v)\n",
		ln.Addr(), eff.Workers, eff.QueueSize, eff.CacheSize, eff.DefaultTimeout)
	if *portfolio {
		fmt.Fprintf(out, "hmcd: portfolio on (backend timeout %v, quarantine dir %s)\n",
			eff.PortfolioBackendTimeout, eff.QuarantineDir)
	}
	if *journalDir != "" {
		// Replay runs in the background (watch /readyz); the verdict and
		// skipped-record counts are known synchronously at open.
		m := svc.Metrics()
		fmt.Fprintf(out, "hmcd: journal %s (verdicts=%d skipped=%d), replaying backlog\n",
			*journalDir, m.VerdictsReloaded.Load(), m.JournalSkippedRecords.Load())
	}
	if ready != nil {
		ready(ln.Addr().String())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(out, "hmcd: draining (grace %v)\n", *drainGrace)
	grace, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := srv.Shutdown(grace); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(out, "hmcd: http shutdown: %v\n", err)
	}
	if err := svc.Shutdown(grace); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Fprintln(out, "hmcd: stopped")
	return nil
}
