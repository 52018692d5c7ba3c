package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hmc/internal/core"
)

// CrashArtifact is a self-contained repro of an engine failure: everything
// needed to replay the exploration that panicked — the program (litmus
// source or corpus test name when the job arrived that way, plus a textual
// dump either way), the model, and the exact bounds — together with the
// recovered panic value, stack, and the exploration stats at failure.
// Artifacts are written as JSON into the service's crash directory and
// replayed with `hmc -repro <file>`.
type CrashArtifact struct {
	// Schema is the engine schema version (core.SchemaVersion) the
	// crashing binary ran. Replay refuses artifacts from another schema:
	// the repro would exercise different exploration semantics than the
	// ones that crashed.
	Schema int `json:"schema"`

	JobID       string    `json:"job_id"`
	Time        time.Time `json:"time"`
	Program     string    `json:"program"`
	Fingerprint string    `json:"fingerprint"`

	// JobSpec is the job as it ran: the model, the exploration bounds
	// and the effective timeout, plus the litmus source or corpus test
	// name when the submission carried one (its BuildProgram rebuilds
	// the program). ProgramDump is always set (human-readable, not
	// machine-replayable).
	JobSpec
	ProgramDump string `json:"program_dump"`
	Attempts    int    `json:"attempts"`

	Panic string     `json:"panic"`
	Stack string     `json:"stack"`
	Stats core.Stats `json:"stats"`
}

// LoadCrashArtifact reads one artifact file written by the service.
func LoadCrashArtifact(path string) (*CrashArtifact, error) {
	a := &CrashArtifact{}
	if err := loadArtifact(path, "crash", a, &a.Schema); err != nil {
		return nil, err
	}
	return a, nil
}

// loadArtifact decodes the artifact file at path into a, whose engine
// schema field is *schema, refusing another schema than this binary's.
func loadArtifact(path, kind string, a any, schema *int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, a); err != nil {
		return fmt.Errorf("%s artifact %s: %w", kind, path, err)
	}
	if *schema != core.SchemaVersion {
		return fmt.Errorf("%s artifact %s: engine schema %d, this binary is %d — not replayable",
			kind, path, *schema, core.SchemaVersion)
	}
	return nil
}

// crashStore keeps at most max artifact files in dir, evicting oldest
// first. It does no locking of its own: the service serializes writes.
// Artifacts land through writeAtomic, so a torn file never counts toward
// the bound or reaches `hmc -repro`; wrap is its test seam.
type crashStore struct {
	dir  string
	max  int
	wrap func(durableFile) durableFile
}

// write serializes a crash artifact into the store and evicts beyond the
// bound. It returns the path of the file written.
func (cs *crashStore) write(a *CrashArtifact) (string, error) {
	return cs.writeJSON("crash", a.Fingerprint, a.JobID, a)
}

// writeJSON serializes any artifact under a kind-prefixed name — the
// shared body of the crash and quarantine stores.
func (cs *crashStore) writeJSON(kind, fingerprint, jobID string, v any) (string, error) {
	if err := os.MkdirAll(cs.dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cs.dir, fmt.Sprintf("%s-%.12s-%s.json", kind, fingerprint, jobID))
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	if err := writeAtomic(path, data, cs.wrap); err != nil {
		return "", err
	}
	return path, cs.evict()
}

// count reports the resident artifact files.
func (cs *crashStore) count() int {
	names, err := cs.list()
	if err != nil {
		return 0
	}
	return len(names)
}

// list returns the store's artifact paths, oldest first (mod time, then
// name — job ids are monotonic, so the tie-break is deterministic under
// coarse clocks).
func (cs *crashStore) list() ([]string, error) {
	entries, err := os.ReadDir(cs.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	type aged struct {
		path string
		mod  time.Time
	}
	var files []aged
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, aged{filepath.Join(cs.dir, e.Name()), info.ModTime()})
	}
	sort.Slice(files, func(i, k int) bool {
		if !files[i].mod.Equal(files[k].mod) {
			return files[i].mod.Before(files[k].mod)
		}
		return files[i].path < files[k].path
	})
	paths := make([]string, len(files))
	for i, f := range files {
		paths[i] = f.path
	}
	return paths, nil
}

// evict removes the oldest artifacts beyond the bound.
func (cs *crashStore) evict() error {
	if cs.max <= 0 {
		return nil
	}
	paths, err := cs.list()
	if err != nil {
		return err
	}
	for len(paths) > cs.max {
		if err := os.Remove(paths[0]); err != nil && !os.IsNotExist(err) {
			return err
		}
		paths = paths[1:]
	}
	return nil
}

// breaker is a per-fingerprint circuit breaker: after threshold engine
// crashes on the same program content, further submissions of that
// fingerprint are rejected until the cooldown has passed since the last
// crash — one poisoned test cannot grind the worker pool in a crash loop.
// After the cooldown the breaker goes half-open: exactly one probe
// submission is admitted, and the entry stays tripped until that probe's
// outcome arrives — succeed closes the breaker, another crash reopens it
// with a fresh cooldown. The trip map is bounded; when full, the stalest
// entry is dropped (a fingerprint that has not crashed recently is the
// safest to forget).
type breaker struct {
	threshold int
	cooldown  time.Duration
	trips     map[string]*breakerEntry
}

type breakerEntry struct {
	count   int
	last    time.Time
	probing bool
	probeAt time.Time // when the in-flight half-open probe was admitted
}

const breakerMaxEntries = 1024

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, trips: map[string]*breakerEntry{}}
}

// allow reports whether a submission of fp should be accepted. A tripped
// entry past its cooldown admits exactly one half-open probe; the entry
// is only cleared when succeed reports the probe ran clean.
func (b *breaker) allow(fp string, now time.Time) bool {
	if b.threshold <= 0 {
		return true
	}
	e, ok := b.trips[fp]
	if !ok {
		return true
	}
	if e.count < b.threshold {
		return true
	}
	if e.probing {
		// A probe is in flight; wait for its verdict. A probe whose
		// verdict never arrives (canceled, lost to history eviction) must
		// not wedge the fingerprint shut forever — after a full further
		// cooldown the breaker admits a fresh probe.
		if now.Sub(e.probeAt) < b.cooldown {
			return false
		}
		e.probeAt = now
		return true
	}
	if now.Sub(e.last) >= b.cooldown {
		e.probing = true
		e.probeAt = now
		return true
	}
	return false
}

// record notes one engine crash on fp. A crash during a half-open probe
// reopens the breaker with a fresh cooldown.
func (b *breaker) record(fp string, now time.Time) {
	e, ok := b.trips[fp]
	if !ok {
		if len(b.trips) >= breakerMaxEntries {
			var stalest string
			var stalestAt time.Time
			for k, v := range b.trips {
				if stalest == "" || v.last.Before(stalestAt) {
					stalest, stalestAt = k, v.last
				}
			}
			delete(b.trips, stalest)
		}
		e = &breakerEntry{}
		b.trips[fp] = e
	}
	e.count++
	e.last = now
	e.probing = false
}

// succeed notes a clean run of fp: a half-open probe (or any successful
// submission) closes the breaker and forgets the crash history.
func (b *breaker) succeed(fp string) {
	delete(b.trips, fp)
}
