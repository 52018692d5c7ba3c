package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"hmc/internal/core"
)

// The job journal is hmcd's write-ahead log: every accepted job, every
// periodic exploration checkpoint, and every terminal transition is
// appended (and fsynced) to a JSONL file in the journal directory before
// the service answers. On startup the journal is replayed: jobs that were
// queued or running when the process died are re-enqueued, resuming from
// their last checkpoint, so a SIGKILL costs at most the work done since
// the last checkpoint record.
//
// The format is line-oriented on purpose — a crash mid-append leaves at
// most one torn final line, which replay skips. Files rotate at a size
// bound; each fresh file starts with a compaction snapshot (the live jobs
// and their latest checkpoints), so rotation also garbage-collects the
// records of finished jobs and superseded checkpoints. Records carry the
// engine schema version: after an engine upgrade, stale records are
// dropped on load rather than resumed into a checker with different
// semantics.

// Journal record types.
const (
	jrecSubmit     = "submit"
	jrecCheckpoint = "checkpoint"
	jrecDone       = "done"
)

// jrec is one journal line. Submit records embed the job's spec (with a
// litmus source or corpus test name — jobs submitted through the library
// API without either are not journaled, as the program cannot be rebuilt
// on replay); checkpoint records carry the encoded core.Checkpoint; done
// records carry the terminal state. Every JobSpec key is omitempty, so
// checkpoint and done records carry none of them.
type jrec struct {
	Type   string `json:"type"`
	Schema int    `json:"schema"`
	ID     string `json:"id"`

	JobSpec

	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`

	State string `json:"state,omitempty"`
}

// journalJob is the live (incomplete) state of one journaled job.
type journalJob struct {
	submit     jrec
	checkpoint json.RawMessage // latest, nil before the first one
}

// journalStats reports what startup replay found.
type journalStats struct {
	liveJobs    int // jobs to re-enqueue
	skipped     int // torn or unparseable lines dropped
	wrongSchema int // records from another engine schema dropped
}

// journalFile is what the journal needs from its backing file. *os.File
// satisfies it directly; tests and the chaos harness interpose fault-
// injecting wrappers through journalHooks.Wrap.
type journalFile interface {
	io.WriteCloser
	Sync() error
	Name() string
}

// journalHooks customises a journal's file handling. Both fields are
// optional.
type journalHooks struct {
	// Wrap interposes on every freshly opened journal file (used by the
	// chaos harness to inject write/fsync faults).
	Wrap func(journalFile) journalFile
	// OnWriteError is called, without j.mu held by the caller's metrics
	// in mind, for every failed write or fsync — once per failure, after
	// classification.
	OnWriteError func(err error)
}

// journal is the append side. All methods are safe for concurrent use;
// the lock also covers rotation, so a checkpoint append never interleaves
// with a compaction snapshot. The journal never calls back into the
// service (no lock-order entanglement with Service.mu).
type journal struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	hooks    journalHooks
	f        journalFile
	size     int64
	seq      int
	live     map[string]*journalJob
	dead     bool // test hook: simulate the process having been killed

	degraded    bool   // a write or fsync failed and has not yet succeeded again
	degradedWhy string // classification of the most recent failure
}

// journalMaxBytes rotates the journal file past this size; each fresh file
// starts with a compaction snapshot of the incomplete jobs.
const journalMaxBytes = 4 << 20

// openJournal loads dir, replays existing journal files into the live-job
// map, starts a fresh file seeded with a compaction snapshot, and removes
// the old files. The returned stats include the live jobs for the caller
// to re-enqueue (fetch them with takeLive).
func openJournal(dir string, maxBytes int64) (*journal, journalStats, error) {
	return openJournalWith(dir, maxBytes, journalHooks{})
}

// openJournalWith is openJournal with file hooks (fault injection,
// write-error accounting).
func openJournalWith(dir string, maxBytes int64, hooks journalHooks) (*journal, journalStats, error) {
	if maxBytes <= 0 {
		maxBytes = journalMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, journalStats{}, err
	}
	j := &journal{dir: dir, maxBytes: maxBytes, hooks: hooks, live: map[string]*journalJob{}}
	files, err := j.files()
	if err != nil {
		return nil, journalStats{}, err
	}
	var stats journalStats
	for _, path := range files {
		s, err := j.replayFile(path)
		if err != nil {
			return nil, journalStats{}, err
		}
		stats.skipped += s.skipped
		stats.wrongSchema += s.wrongSchema
	}
	stats.liveJobs = len(j.live)
	// Start the next sequence file with a snapshot of the live state, then
	// drop the old files: replay is now redundant with the snapshot.
	j.seq++
	if err := j.rotateLocked(); err != nil {
		return nil, journalStats{}, err
	}
	for _, path := range files {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, journalStats{}, err
		}
	}
	return j, stats, nil
}

// files lists the journal files in sequence order and records the highest
// sequence number seen.
func (j *journal) files() ([]string, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "journal-") || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(name, "journal-%d.jsonl", &seq); err != nil {
			continue
		}
		if seq > j.seq {
			j.seq = seq
		}
		paths = append(paths, filepath.Join(j.dir, name))
	}
	sort.Strings(paths) // zero-padded names: lexical = sequence order
	return paths, nil
}

// replayFile folds one journal file into the live map. Unparseable lines
// (a torn tail from a crash mid-append, or garbage) and records from
// another engine schema are counted and skipped, never fatal: the journal
// must be readable after exactly the failures it exists to survive.
func (j *journal) replayFile(path string) (journalStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return journalStats{}, err
	}
	defer f.Close()
	var stats journalStats
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec jrec
		if err := json.Unmarshal(line, &rec); err != nil {
			stats.skipped++
			continue
		}
		if rec.Schema != core.SchemaVersion {
			stats.wrongSchema++
			continue
		}
		j.applyLocked(rec)
	}
	if err := sc.Err(); err != nil {
		// An over-long torn line: treat like any other torn tail.
		stats.skipped++
	}
	return stats, nil
}

// applyLocked folds one record into the live map.
func (j *journal) applyLocked(rec jrec) {
	switch rec.Type {
	case jrecSubmit:
		if rec.Source == "" && rec.Test == "" {
			return
		}
		j.live[rec.ID] = &journalJob{submit: rec}
	case jrecCheckpoint:
		if jj, ok := j.live[rec.ID]; ok && len(rec.Checkpoint) > 0 {
			jj.checkpoint = rec.Checkpoint
		}
	case jrecDone:
		delete(j.live, rec.ID)
	}
}

// takeLive removes and returns the live jobs in id order (ids are
// zero-padded and monotonic, so lexical order is submission order).
func (j *journal) takeLive() []*journalJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]*journalJob, 0, len(j.live))
	for _, jj := range j.live {
		out = append(out, jj)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].submit.ID < out[b].submit.ID })
	// The jobs stay live (they are incomplete until their done record);
	// only the caller's need to enumerate them once is consumed.
	return out
}

// maxLiveID returns the largest numeric suffix among live job ids, so a
// restarted service continues the id sequence without collisions.
func (j *journal) maxLiveID() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	max := 0
	for id := range j.live {
		var n int
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > max {
			max = n
		}
	}
	return max
}

// submit journals an accepted job.
func (j *journal) submit(id string, js JobSpec) {
	if js.Source == "" && js.Test == "" {
		return // not rebuildable on replay; see jrec
	}
	j.append(jrec{Type: jrecSubmit, ID: id, JobSpec: js})
}

// checkpoint journals a periodic exploration snapshot. Returns false when
// the encode failed (the job keeps running; it just resumes from an older
// point after a crash).
func (j *journal) checkpoint(id string, cp *core.Checkpoint) bool {
	data, err := cp.Encode()
	if err != nil {
		return false
	}
	j.append(jrec{Type: jrecCheckpoint, ID: id, Checkpoint: data})
	return true
}

// done journals a terminal transition, retiring the job from the live
// set.
func (j *journal) done(id string, state JobState) {
	j.append(jrec{Type: jrecDone, ID: id, State: string(state)})
}

// append writes one fsynced record and rotates past the size bound.
func (j *journal) append(rec jrec) {
	rec.Schema = core.SchemaVersion
	data, err := appendLine(nil, rec)
	if err != nil {
		return // jrec is plain data; cannot happen
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return
	}
	j.applyLocked(rec)
	if j.f == nil {
		return
	}
	n, err := j.f.Write(data)
	j.size += int64(n)
	if err != nil {
		// Disk trouble: degrade to an in-memory journal rather than wedge
		// the worker. The record is already applied to the live map, so
		// serving continues; only crash durability is lost until a write
		// succeeds again, and /readyz reports the window.
		j.noteWriteErrorLocked("write", err)
		return
	}
	if err := j.f.Sync(); err != nil {
		j.noteWriteErrorLocked("fsync", err)
		return
	}
	if j.degraded {
		// A full write+fsync landed: durability is back.
		j.degraded, j.degradedWhy = false, ""
	}
	if j.size > j.maxBytes {
		j.seq++
		j.rotateLocked() //nolint:errcheck // keep appending to the old file on failure
	}
}

// noteWriteErrorLocked classifies a failed write or fsync, flips the
// journal into its degraded state, and reports the failure to the
// OnWriteError hook. Callers hold j.mu.
func (j *journal) noteWriteErrorLocked(op string, err error) {
	why := op + " error"
	if errors.Is(err, syscall.ENOSPC) {
		why = "disk full (ENOSPC)"
	}
	j.degraded, j.degradedWhy = true, why
	if j.hooks.OnWriteError != nil {
		j.hooks.OnWriteError(err)
	}
}

// degradedState reports whether the journal is running without durability
// (a write or fsync failed and none has succeeded since) and why.
func (j *journal) degradedState() (bool, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded, j.degradedWhy
}

// appendLine appends rec to buf as one journal line. The checkpoint is
// already compact JSON (core.Checkpoint.Encode, or a line read back by
// replay), so it is spliced in as the last field; json.Marshal would
// re-validate and re-compact every byte of it as a RawMessage, which
// dominated the cost of journaling a large checkpoint. The line is the
// one json.Marshal writes: State, the only field after the checkpoint, is
// empty on checkpoint records.
func appendLine(buf []byte, rec jrec) ([]byte, error) {
	cp := rec.Checkpoint
	rec.Checkpoint = nil
	data, err := json.Marshal(rec)
	if err != nil {
		return buf, err
	}
	if len(cp) > 0 {
		data = append(data[:len(data)-1], `,"checkpoint":`...)
		data = append(append(data, cp...), '}')
	}
	return append(append(buf, data...), '\n'), nil
}

// rotateLocked opens journal-<seq>.jsonl, writes a compaction snapshot of
// the live jobs, fsyncs it, and retires the previous file. Callers hold
// j.mu (or are on the single-threaded open path).
func (j *journal) rotateLocked() error {
	path := filepath.Join(j.dir, fmt.Sprintf("journal-%09d.jsonl", j.seq))
	of, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var f journalFile = of
	if j.hooks.Wrap != nil {
		f = j.hooks.Wrap(f)
	}
	var buf []byte
	for _, jj := range j.liveSorted() {
		var err error
		if buf, err = appendLine(buf, jj.submit); err != nil {
			continue
		}
		if len(jj.checkpoint) > 0 {
			buf, _ = appendLine(buf, jrec{
				Type: jrecCheckpoint, Schema: jj.submit.Schema, ID: jj.submit.ID, Checkpoint: jj.checkpoint,
			})
		}
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(path) //nolint:errcheck // best effort
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path) //nolint:errcheck // best effort
		return err
	}
	old, oldPath := j.f, ""
	if old != nil {
		oldPath = old.Name()
	}
	j.f, j.size = f, int64(len(buf))
	if old != nil {
		old.Close()
		os.Remove(oldPath) //nolint:errcheck // superseded by the snapshot
	}
	return nil
}

// liveSorted returns the live jobs in id order. Callers hold j.mu.
func (j *journal) liveSorted() []*journalJob {
	out := make([]*journalJob, 0, len(j.live))
	for _, jj := range j.live {
		out = append(out, jj)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].submit.ID < out[b].submit.ID })
	return out
}

// kill simulates the process dying for restart tests: all subsequent
// appends are dropped, exactly as if the process had been SIGKILLed at
// this instant (the on-disk state freezes).
func (j *journal) kill() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dead = true
}

// close flushes and closes the journal file.
func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Sync() //nolint:errcheck // best effort on shutdown
		j.f.Close()
		j.f = nil
	}
}
