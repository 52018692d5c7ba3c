package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// TraceEvent is one structured exploration event, written as a JSON line.
// Kind selects which of the optional fields are meaningful:
//
//   - "wave":          Wave, Frontier — a pause was served (Frontier: the parked graphs)
//   - "revisit-tried": Write, Read — a backward revisit was considered
//   - "revisit-taken": Write, Read — the revisit passed repair + consistency
//   - "prune":         Prune ("rf"|"co"|"scan"), Count — static pruning
//     skipped that much branching work
//   - "snapshot":      Snapshot — a progress snapshot (when both Trace and
//     Progress are enabled)
type TraceEvent struct {
	Kind string `json:"kind"`
	// TMS is milliseconds since the tracer was created.
	TMS      float64           `json:"t_ms"`
	Wave     int               `json:"wave,omitempty"`
	Frontier int               `json:"frontier,omitempty"`
	Write    string            `json:"write,omitempty"`
	Read     string            `json:"read,omitempty"`
	Prune    string            `json:"prune,omitempty"`
	Count    int               `json:"count,omitempty"`
	Snapshot *ProgressSnapshot `json:"snapshot,omitempty"`
}

// Tracer streams TraceEvents as JSONL to a writer. Emit is safe from any
// goroutine (exploration workers trace concurrently) and on a nil
// receiver, so call sites need no enablement checks. The first write or
// encode error latches: subsequent events are dropped and the error is
// reported by Err at the end of the run — tracing must never abort an
// exploration.
type Tracer struct {
	mu     sync.Mutex
	w      io.Writer
	start  time.Time
	events atomic.Int64
	err    error
}

// NewTracer returns a tracer writing JSON lines to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, start: time.Now()}
}

// Emit writes one event, stamping its relative time.
func (t *Tracer) Emit(ev TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	ev.TMS = float64(time.Since(t.start).Microseconds()) / 1000
	data, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(append(data, '\n')); err != nil {
		t.err = err
		return
	}
	t.events.Add(1)
}

// Events returns the number of events written so far.
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	return t.events.Load()
}

// Err returns the latched write/encode error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
