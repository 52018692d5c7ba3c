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
//	     [-timeout 30s] [-max-timeout 5m] [-drain 10s]
//	     [-crash-dir hmcd-crashes] [-journal DIR] [-checkpoint-every 2000]
//	     [-progress-every 1s] [-pprof 127.0.0.1:6060]
//	     [-portfolio] [-quarantine-dir hmcd-quarantine]
//
// Fault containment: an engine panic fails only its own job — the panic
// is recovered into a structured engine_error on the job payload and a
// replayable crash artifact under -crash-dir (replay with `hmc -repro`);
// a program that crashes the engine 3 times trips a per-fingerprint
// circuit breaker (HTTP 503 for 10 minutes), a memory-budget truncation
// is retried once after 50ms, and each artifact directory keeps its
// newest 32 files. These bounds are the service.Config defaults.
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
// jobs run at once.
//
// Durability: with -journal DIR, each live job keeps its spec and latest
// checkpoint (every -checkpoint-every executions) as two files in DIR, so
// a restarted daemon resumes it; a failed write keeps the daemon serving
// and /readyz reports "degraded" until the next write succeeds.
//
// Observability: running jobs publish progress snapshots every
// -progress-every (counters, rates, sampled phase breakdown), served in
// job polls, the /progress long-poll and the /metrics histograms; -pprof
// serves net/http/pprof on a separate, private listener.
//
// SIGINT/SIGTERM drains gracefully: the listener stops, queued and
// running jobs get the drain grace period to finish, then are cancelled.
// With -journal they stay stored (a running one with its final
// checkpoint), and the next start runs or resumes them.
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

	"hmc/internal/core"
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

// daemonFlags is everything hmcd's command line sets: the service
// configuration plus the daemon's own listener and lifecycle settings.
type daemonFlags struct {
	cfg             service.Config
	addr, pprofAddr string
	drain           time.Duration
}

// newFlags defines hmcd's flags, each bound to its field of f. Settings
// without a flag take the service defaults (service.Config).
func newFlags(f *daemonFlags) *flag.FlagSet {
	fs := flag.NewFlagSet("hmcd", flag.ContinueOnError)
	fs.StringVar(&f.addr, "addr", ":8433", "listen address")
	fs.IntVar(&f.cfg.QueueSize, "queue", 64, "job queue capacity (full queue rejects with 503)")
	fs.IntVar(&f.cfg.Workers, "workers", 2, "jobs explored concurrently")
	fs.IntVar(&f.cfg.CacheSize, "cache", 128, "verdict cache entries (negative disables)")
	fs.DurationVar(&f.cfg.DefaultTimeout, "timeout", 30*time.Second, "default per-job deadline (0 = none)")
	fs.DurationVar(&f.cfg.MaxTimeout, "max-timeout", 5*time.Minute, "cap on requested per-job deadlines (0 = none)")
	fs.DurationVar(&f.drain, "drain", 10*time.Second, "shutdown grace before in-flight jobs are cancelled")
	fs.StringVar(&f.cfg.CrashDir, "crash-dir", "hmcd-crashes", "directory for engine-crash repro artifacts")
	fs.StringVar(&f.cfg.JournalDir, "journal", "", "directory keeping each live job's spec and latest checkpoint, plus the verdict cache; makes the daemon durable across restarts (empty disables)")
	fs.IntVar(&f.cfg.CheckpointEveryExecs, "checkpoint-every", core.DefaultCheckpointEvery, "executions between stored exploration checkpoints")
	fs.DurationVar(&f.cfg.ProgressEvery, "progress-every", core.DefaultProgressEvery, "cadence of live job progress snapshots (negative disables)")
	fs.StringVar(&f.pprofAddr, "pprof", "", "serve net/http/pprof on this separate address (empty disables)")
	fs.BoolVar(&f.cfg.Portfolio, "portfolio", false, "race every applicable backend per job and cross-attest verdicts; disagreements are quarantined, never served")
	fs.StringVar(&f.cfg.QuarantineDir, "quarantine-dir", "hmcd-quarantine", "directory for backend-disagreement repro artifacts")
	return fs
}

// run starts the daemon and blocks until ctx is cancelled, then drains.
// ready, when non-nil, is called with the bound address once the listener
// is accepting (tests bind ":0" and need the resolved port).
func run(ctx context.Context, args []string, out io.Writer, ready func(addr string)) error {
	var f daemonFlags
	if err := newFlags(&f).Parse(args); err != nil {
		return err
	}

	svc, err := service.New(f.cfg)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}

	// pprof gets its own listener and mux so the profiling surface is never
	// reachable through the public API address — bind it to localhost (or a
	// firewalled port) independently of -addr. The explicit mux avoids the
	// net/http/pprof side effect of registering on http.DefaultServeMux.
	if f.pprofAddr != "" {
		pln, err := net.Listen("tcp", f.pprofAddr)
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

	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		return err
	}
	// Report the effective configuration: out-of-range flag values (zero
	// or negative workers/queue) are clamped by the service's defaults.
	eff := svc.Config()
	fmt.Fprintf(out, "hmcd: listening on %s (workers=%d queue=%d cache=%d timeout=%v)\n",
		ln.Addr(), eff.Workers, eff.QueueSize, eff.CacheSize, eff.DefaultTimeout)
	if f.cfg.Portfolio {
		fmt.Fprintf(out, "hmcd: portfolio on (quarantine dir %s)\n", eff.QuarantineDir)
	}
	if f.cfg.JournalDir != "" {
		// Replay runs in the background (watch /readyz); the verdict and
		// skipped-file counts are known synchronously at open.
		m := svc.Metrics()
		fmt.Fprintf(out, "hmcd: journal %s (verdicts=%d skipped=%d), replaying backlog\n",
			f.cfg.JournalDir, m.VerdictsReloaded.Load(), m.JournalSkippedRecords.Load())
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

	fmt.Fprintf(out, "hmcd: draining (grace %v)\n", f.drain)
	grace, cancel := context.WithTimeout(context.Background(), f.drain)
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
