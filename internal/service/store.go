package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"hmc/internal/core"
)

// The job store is hmcd's durable state, kept in Config.JournalDir. HMC
// is a stateless model checker: a job needs only its spec and its latest
// frontier checkpoint to survive a crash, so each live job is two files,
// job-NNNNNN.json (jobFile) and job-NNNNNN.ckpt (core.Checkpoint.Encode
// bytes, the format `hmc -checkpoint` writes). Submit writes the spec,
// each periodic checkpoint replaces the .ckpt, and the terminal transition
// removes both. On startup the live jobs are re-enqueued in id order,
// each resuming from its checkpoint. Spec files that do not decode or come
// from another engine schema, a .ckpt without its spec and temp files of
// interrupted writes are counted and removed. Legacy write-ahead journals
// (journal-*.jsonl) are imported into job files once and removed. The
// file last-id holds the largest job id number ever handed out, so a
// restart never hands out the id of a finished job again.

const (
	specExt    = ".json"
	ckptExt    = ".ckpt"
	tmpSuffix  = ".tmp"
	lastIDFile = "last-id"
)

// jobFile is the content of a spec file: the legacy journal's submit
// record less its type. Every JobSpec key is omitempty.
type jobFile struct {
	Schema int    `json:"schema"`
	ID     string `json:"id"`
	JobSpec
}

// storedJob is one live job read back at startup.
type storedJob struct {
	jobFile
	checkpoint []byte // nil before the first checkpoint
}

// storeStats reports what opening the store found.
type storeStats struct {
	liveJobs    int // jobs to re-enqueue
	skipped     int // undecodable or left-over files and torn journal lines
	wrongSchema int // spec files and journal records from another engine schema
}

// durableFile is what writeAtomic needs from a file it opens.
type durableFile interface {
	io.WriteCloser
	Sync() error
	Name() string
}

// journalHooks customises file handling; both fields are optional. Wrap
// interposes on every file writeAtomic and syncDir open (the test seam
// for write and fsync faults); OnWriteError sees every failed store write
// or removal.
type journalHooks struct {
	Wrap         func(durableFile) durableFile
	OnWriteError func(err error)
}

// jobStore writes and removes job files. Its lock is held across each
// write, so one job's files change in the order the service asks; the
// store never calls back into the service.
type jobStore struct {
	dir   string
	hooks journalHooks

	mu sync.Mutex
	// live maps each stored, unretired job to its encoded spec until that
	// is on disk (a failed write is retried by the next checkpoint), then
	// to nil. early holds jobs retired before their submit was stored (a
	// fast job can finish first), whose spec must then never be written.
	live   map[string][]byte
	early  map[string]bool
	lastID int  // the id number last-id holds
	dead   bool // test hook: the process "was killed", nothing more is written

	degraded    bool   // a write failed and none has succeeded since
	degradedWhy string // classification of the most recent failure
}

// openStore opens the store in dir and returns its live jobs in id order.
func openStore(dir string, hooks journalHooks) (*jobStore, []*storedJob, storeStats, error) {
	var stats storeStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, stats, err
	}
	st := &jobStore{dir: dir, hooks: hooks, live: map[string][]byte{}, early: map[string]bool{}}
	if data, err := os.ReadFile(filepath.Join(dir, lastIDFile)); err == nil {
		st.lastID, _ = strconv.Atoi(strings.TrimSpace(string(data))) // 0 if damaged: the live ids still count
	} else if !os.IsNotExist(err) {
		return nil, nil, stats, err
	}
	if err := st.importJournal(&stats); err != nil {
		return nil, nil, stats, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, stats, err
	}
	specs := map[string]*storedJob{}
	var ckpts []string
	drop := func(name string, count *int) {
		os.Remove(filepath.Join(dir, name)) //nolint:errcheck // a file that stays is dropped again next start
		*count++
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() || !strings.HasPrefix(name, "job-") && !strings.HasSuffix(name, tmpSuffix):
		case strings.HasSuffix(name, tmpSuffix):
			drop(name, &stats.skipped)
		case strings.HasSuffix(name, ckptExt):
			ckpts = append(ckpts, name)
		case strings.HasSuffix(name, specExt):
			var jf jobFile
			data, err := os.ReadFile(filepath.Join(dir, name))
			switch {
			case err != nil:
				return nil, nil, stats, err
			case json.Unmarshal(data, &jf) != nil || jf.ID+specExt != name || !jf.durable():
				drop(name, &stats.skipped)
			case jf.Schema != core.SchemaVersion:
				drop(name, &stats.wrongSchema)
			default:
				specs[jf.ID] = &storedJob{jobFile: jf}
			}
		}
	}
	for _, name := range ckpts {
		if sj := specs[strings.TrimSuffix(name, ckptExt)]; sj == nil {
			drop(name, &stats.skipped)
		} else if sj.checkpoint, err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			return nil, nil, stats, err
		}
	}
	// The fsync makes the removals above durable.
	if err := syncDir(dir, hooks.Wrap); err != nil {
		return nil, nil, stats, err
	}
	jobs := make([]*storedJob, 0, len(specs))
	for id, sj := range specs {
		st.live[id] = nil
		jobs = append(jobs, sj)
	}
	sort.Slice(jobs, func(a, b int) bool { return idLess(jobs[a].ID, jobs[b].ID) })
	stats.liveJobs = len(jobs)
	return st, jobs, stats, nil
}

// idLess orders zero-padded job ids numerically, also past the padding.
func idLess(a, b string) bool {
	return len(a) < len(b) || len(a) == len(b) && a < b
}

// idNumber returns the sequence number of a job id (0 for a foreign id).
func idNumber(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n
}

// issue records that id was handed out, raising last-id durably when id
// is past it. A failed write degrades the store like any other; the next
// issue writes a larger id.
func (st *jobStore) issue(id string) {
	n := idNumber(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if n > st.lastID && st.writeLocked(lastIDFile, []byte(strconv.Itoa(n)+"\n")) {
		st.lastID = n
	}
}

// submit stores an accepted job's spec, unless the program cannot be
// rebuilt from it (no litmus source or corpus test name).
func (st *jobStore) submit(id string, js JobSpec) {
	if !js.durable() {
		return
	}
	spec, err := json.Marshal(jobFile{Schema: core.SchemaVersion, ID: id, JobSpec: js})
	if err != nil {
		return // jobFile is plain data; cannot happen
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.early[id] {
		delete(st.early, id)
		return
	}
	st.live[id] = spec
	if st.writeLocked(id+specExt, spec) {
		st.live[id] = nil
	}
}

// checkpoint replaces a live job's .ckpt file and reports whether the
// checkpoint reached the disk.
func (st *jobStore) checkpoint(id string, cp *core.Checkpoint) bool {
	data, err := cp.Encode()
	if err != nil {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	spec, ok := st.live[id]
	if !ok || spec != nil && !st.writeLocked(id+specExt, spec) {
		return false
	}
	st.live[id] = nil
	return st.writeLocked(id+ckptExt, data)
}

// done retires a job. The spec goes first: a crash in between leaves an
// orphan .ckpt, removed at the next start, not a finished job that would
// run again.
func (st *jobStore) done(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.live[id]; !ok {
		st.early[id] = true
		return
	}
	delete(st.live, id)
	if st.dead {
		return
	}
	removed := false
	for _, name := range []string{id + specExt, id + ckptExt} {
		if err := os.Remove(filepath.Join(st.dir, name)); err == nil {
			removed = true
		} else if !os.IsNotExist(err) {
			st.failedLocked(&stepError{"remove", err})
			return
		}
	}
	if removed {
		if err := syncDir(st.dir, st.hooks.Wrap); err != nil {
			st.failedLocked(err)
		}
	}
}

// writeFile atomically replaces dir/name (verdicts.json).
func (st *jobStore) writeFile(name string, data []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.writeLocked(name, data)
}

// writeLocked writes one file. A failure degrades the store — it keeps
// serving without crash durability, and /readyz says so — and the next
// clean write restores it. Callers hold st.mu.
func (st *jobStore) writeLocked(name string, data []byte) bool {
	if st.dead {
		return false
	}
	if err := writeAtomic(filepath.Join(st.dir, name), data, st.hooks.Wrap); err != nil {
		st.failedLocked(err)
		return false
	}
	st.degraded, st.degradedWhy = false, ""
	return true
}

// failedLocked classifies a failed write or removal, degrades the store
// and reports the failure to OnWriteError. Callers hold st.mu.
func (st *jobStore) failedLocked(err error) {
	st.degraded, st.degradedWhy = true, "write error"
	var se *stepError
	if errors.Is(err, syscall.ENOSPC) {
		st.degradedWhy = "disk full (ENOSPC)"
	} else if errors.As(err, &se) {
		st.degradedWhy = se.step + " error"
	}
	if st.hooks.OnWriteError != nil {
		st.hooks.OnWriteError(err)
	}
}

// degradedState reports whether the store is running without durability
// and why.
func (st *jobStore) degradedState() (bool, string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.degraded, st.degradedWhy
}

// kill simulates the process dying for restart tests: from here on the
// files freeze on disk, exactly as if the process had been SIGKILLed.
func (st *jobStore) kill() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.dead = true
}

// stepError names the step of a durable write that failed.
type stepError struct {
	step string // create, write, fsync, close, rename, fsync dir, remove
	err  error
}

func (e *stepError) Error() string { return e.step + ": " + e.err.Error() }
func (e *stepError) Unwrap() error { return e.err }

// WriteFileAtomic replaces path with data durably: a crash at any point
// leaves the previous file or the new one, never a torn mix.
func WriteFileAtomic(path string, data []byte) error {
	return writeAtomic(path, data, nil)
}

// writeAtomic is the one durable writer: a temp file in path's directory
// is written, fsynced, closed and renamed over path, and the directory is
// fsynced so the rename survives a crash. On failure the temp file is
// removed and path is untouched. wrap, when non-nil, interposes on every
// file opened.
func writeAtomic(path string, data []byte, wrap func(durableFile) durableFile) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*"+tmpSuffix)
	if err != nil {
		return &stepError{"create", err}
	}
	tmp.Chmod(0o644) //nolint:errcheck // best effort: the mode os.WriteFile gave these files
	var f durableFile = tmp
	if wrap != nil {
		f = wrap(f)
	}
	step := "write"
	if _, err = f.Write(data); err == nil {
		step, err = "fsync", f.Sync()
	}
	if err == nil {
		step, err = "close", f.Close()
	}
	if err == nil {
		step, err = "rename", os.Rename(tmp.Name(), path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp.Name()) //nolint:errcheck // a stray temp file is removed at the next start
		return &stepError{step, err}
	}
	return syncDir(filepath.Dir(path), wrap)
}

// syncDir fsyncs a directory, making the renames and removals in it
// durable.
func syncDir(dir string, wrap func(durableFile) durableFile) error {
	d, err := os.Open(dir)
	if err == nil {
		var f durableFile = d
		if wrap != nil {
			f = wrap(f)
		}
		err = f.Sync()
		f.Close()
	}
	if err != nil {
		return &stepError{"fsync dir", err}
	}
	return nil
}

// jrec is one line of a legacy journal: a submit record carries the spec,
// a checkpoint record the encoded checkpoint, a done record retires.
type jrec struct {
	Type   string `json:"type"`
	Schema int    `json:"schema"`
	ID     string `json:"id"`
	JobSpec
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// importJournal folds legacy journal files, in sequence order, into job
// files and removes them. A line that does not parse (the torn tail of a
// crash mid-append) or comes from another schema is counted and skipped.
func (st *jobStore) importJournal(stats *storeStats) error {
	paths, err := filepath.Glob(filepath.Join(st.dir, "journal-*.jsonl"))
	if err != nil || len(paths) == 0 {
		return err
	}
	sort.Strings(paths) // zero-padded names: lexical = sequence order
	live := map[string]*storedJob{}
	last := 0 // every journaled id was handed out, finished ones too
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			var rec jrec
			err := json.Unmarshal(line, &rec)
			if err == nil && rec.Schema == core.SchemaVersion {
				last = max(last, idNumber(rec.ID))
			}
			switch {
			case len(line) == 0:
			case err != nil:
				stats.skipped++
			case rec.Schema != core.SchemaVersion:
				stats.wrongSchema++
			case rec.Type == "submit" && rec.durable():
				live[rec.ID] = &storedJob{jobFile: jobFile{Schema: rec.Schema, ID: rec.ID, JobSpec: rec.JobSpec}}
			case rec.Type == "checkpoint" && live[rec.ID] != nil && len(rec.Checkpoint) > 0:
				live[rec.ID].checkpoint = rec.Checkpoint
			case rec.Type == "done":
				delete(live, rec.ID)
			}
		}
	}
	for id, sj := range live {
		spec, err := json.Marshal(sj.jobFile)
		if err == nil {
			err = writeAtomic(filepath.Join(st.dir, id+specExt), spec, st.hooks.Wrap)
		}
		if err == nil && sj.checkpoint != nil {
			err = writeAtomic(filepath.Join(st.dir, id+ckptExt), sj.checkpoint, st.hooks.Wrap)
		}
		if err != nil {
			return err
		}
	}
	if last > st.lastID {
		if err := writeAtomic(filepath.Join(st.dir, lastIDFile), []byte(strconv.Itoa(last)+"\n"), st.hooks.Wrap); err != nil {
			return err
		}
		st.lastID = last
	}
	for _, path := range paths {
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	return syncDir(st.dir, st.hooks.Wrap)
}
