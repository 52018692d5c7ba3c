package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans bounds the spans kept in memory. A forward verdict makes about
// ten thousand consistency checks, each a span, so a long traced run would
// otherwise hold millions; spans past the bound are counted, not kept. The per-layer
// metrics are summed at the boundaries themselves and never read back from
// the span list.
const maxSpans = 100_000

// span is one timed call across a layer boundary. Spans of one job share
// Job; Parent is the ID of the span that caused this one (0 for a job span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// Times are nanoseconds since the tracer was made. It is safe for
// concurrent use (the serve workload has two clients).
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	nextID  int
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns the current time on the tracer's clock.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// at converts a wall-clock instant (such as a service timestamp) to the
// tracer's clock.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// add records a finished span.
func (t *tracer) add(name string, parent, job int, start, end int64) {
	t.addReserved(t.reserve(), name, parent, job, start, end)
}

// reserve hands out a span ID before the span ends, so children recorded
// while it is open can name it as their parent; close it with addReserved.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// addReserved records a span under an ID from reserve.
func (t *tracer) addReserved(id int, name string, parent, job int, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start, End: end})
	} else {
		t.dropped++
	}
}

// write stores the spans as JSON lines in path, creating its directory.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
