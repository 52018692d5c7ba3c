package core

import (
	"errors"
	"fmt"
	"runtime/debug"

	"hmc/internal/prog"
)

// EngineError is a contained engine failure: a panic raised anywhere in
// the exploration engine (internal/eg, internal/relation, internal/interp,
// or core itself), caught at the public entry points and converted into a
// structured error instead of taking the process down. One poisoned
// program fails its own call; a service built on the engine keeps its
// other jobs running.
//
// The fields are a self-contained diagnostic: which operation died, on
// which program (name and content fingerprint, so the failure is
// correlatable across renamed resubmissions), under which model, with what
// panic payload and goroutine stack, and how far exploration had gotten —
// everything a crash artifact needs to make the failure reproducible.
type EngineError struct {
	// Op is the entry point that failed: "explore" or "estimate"
	// (analyses built on Explore wrap the error with their own context).
	Op string
	// Program and Fingerprint identify the input (prog.Fingerprint).
	Program     string
	Fingerprint string
	// Model is the memory model the exploration ran under.
	Model string
	// PanicValue is the recovered panic payload.
	PanicValue any
	// Stack is the formatted stack of the panicking goroutine.
	Stack string
	// Stats is a snapshot of the exploration counters at the point of
	// failure — partial work, useful for triage ("died after N states").
	Stats Stats
}

func (e *EngineError) Error() string {
	return fmt.Sprintf("core: engine panic during %s of %q under %s: %v",
		e.Op, e.Program, e.Model, e.PanicValue)
}

// AsEngineError unwraps err to an *EngineError if one is in its chain.
func AsEngineError(err error) (*EngineError, bool) {
	var ee *EngineError
	if errors.As(err, &ee) {
		return ee, true
	}
	return nil, false
}

// Truncation reasons reported in Result.TruncatedReason. MaxExecutions
// and MaxEvents truncations are deterministic functions of the program and
// options; a memory-budget truncation also depends on ambient heap
// pressure, so callers (the service) treat it as transient and retryable.
const (
	TruncMaxExecutions = "max-executions"
	TruncMaxEvents     = "max-events"
	TruncMemoryBudget  = "memory-budget"
)

// Contain runs fn with the engine's panic→EngineError boundary installed
// and returns fn's error, or an *EngineError if fn panicked. It is the
// exported face of the guard for callers that drive engine-adjacent code
// outside Explore — the backend adapters wrap the axiomatic enumerator
// and the operational machines (which, as test oracles, were written to
// panic on internal invariant violations) so that a poisoned program
// fails its own portfolio leg instead of taking the process down. The op
// string names the failing operation ("backend:axenum", …); model is the
// memory-model name recorded for triage.
func Contain(op string, p *prog.Program, model string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &EngineError{
				Op:          op,
				Program:     p.Name,
				Fingerprint: p.Fingerprint(),
				Model:       model,
				PanicValue:  r,
				Stack:       string(debug.Stack()),
			}
		}
	}()
	return fn()
}

// guard runs task and converts a panic into the shared EngineError,
// stopping the exploration. It is installed at the root of every driver —
// the Explore goroutine's and each worker's — so a panic anywhere in the
// engine — graph code, relation algebra, the interpreter, a model's
// consistency check, or a user callback — is contained to this Explore
// call. Only the first panic is kept; later ones (other workers tripping
// over the same poisoned state while winding down) are dropped.
func (e *explorer) guard(task func()) {
	defer func() {
		if r := recover(); r != nil {
			e.capturePanic(r)
		}
	}()
	task()
}

// capturePanic records the first panic into the shared state and raises
// the stop flag so every driver winds down. Mutex-protected state is
// safe to touch here: every callback invocation under sh.mu releases the
// lock via defer before the panic unwinds to a guard.
func (e *explorer) capturePanic(r any) {
	stack := string(debug.Stack())
	e.sh.mu.Lock()
	if e.sh.engineErr == nil {
		e.sh.engineErr = &EngineError{
			Op:          "explore",
			Program:     e.p.Name,
			Fingerprint: e.p.Fingerprint(),
			Model:       e.opts.Model.Name(),
			PanicValue:  r,
			Stack:       stack,
			Stats:       e.sh.res.Stats,
		}
	}
	e.sh.mu.Unlock()
	e.sh.stop.Store(true)
}

// truncate marks the result truncated with the given reason (first reason
// wins) and, when end is set, ends the whole run rather than just pruning
// the current subtree.
func (e *explorer) truncate(why string, end bool) {
	e.sh.mu.Lock()
	e.sh.truncateLocked(why)
	e.sh.mu.Unlock()
	if end {
		e.sh.request(reasonEnd)
	}
}

// truncateLocked marks the result truncated; the first reason wins.
// Called with sh.mu held.
func (sh *shared) truncateLocked(why string) {
	sh.res.Truncated = true
	if sh.res.TruncatedReason == "" {
		sh.res.TruncatedReason = why
	}
}
