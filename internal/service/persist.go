package service

import (
	"encoding/json"
	"os"
	"path/filepath"

	"hmc/internal/core"
)

// Verdict-cache persistence: the content-addressed verdict cache is
// written to verdicts.json in the journal directory whenever a new
// verdict lands and on shutdown, and loaded on startup — a restarted
// daemon answers repeat submissions from cache instead of re-exploring.
// The file is keyed by the engine schema version; after an engine upgrade
// every entry is dropped on load (a verdict computed under different
// exploration semantics must never be served as current).

const verdictFile = "verdicts.json"

// storedVerdict is one persisted cache entry. The live Result's error
// witnesses hold unexported graph state, so they travel through the same
// wire codec as checkpoints.
type storedVerdict struct {
	Key             string           `json:"key"`
	Stats           core.Stats       `json:"stats"`
	Errors          []core.WireError `json:"errors,omitempty"`
	Truncated       bool             `json:"truncated,omitempty"`
	TruncatedReason string           `json:"reason,omitempty"`
}

// verdictFileJSON is the on-disk shape.
type verdictFileJSON struct {
	Schema   int             `json:"schema"`
	Verdicts []storedVerdict `json:"verdicts"`
}

// loadVerdicts reads dir/verdicts.json into the cache. A missing file is
// a fresh start; a corrupt file or one from another engine schema is
// dropped wholesale (the cache is a performance layer — stale or
// undecodable entries are discarded, never guessed at). Returns the
// number of entries restored.
func loadVerdicts(dir string, cache *verdictCache) int {
	data, err := os.ReadFile(filepath.Join(dir, verdictFile))
	if err != nil {
		return 0
	}
	var vf verdictFileJSON
	if err := json.Unmarshal(data, &vf); err != nil || vf.Schema != core.SchemaVersion {
		return 0
	}
	n := 0
	for _, sv := range vf.Verdicts {
		errs, err := core.DecodeErrorReports(sv.Errors)
		if err != nil {
			continue
		}
		res := &core.Result{
			Stats:           sv.Stats,
			Truncated:       sv.Truncated,
			TruncatedReason: sv.TruncatedReason,
		}
		res.Stats.Errors = errs
		cache.put(sv.Key, res)
		n++
	}
	return n
}

// persistVerdicts writes the cache snapshot through the job store's
// atomic writer (a no-op without a store), so a crash mid-write leaves the
// previous file intact. Persistence is best effort; a failed write
// degrades the store like any other.
func (s *Service) persistVerdicts() {
	if s.cfg.CacheSize <= 0 || s.store == nil {
		return
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	entries := s.cache.snapshot()
	vf := verdictFileJSON{Schema: core.SchemaVersion, Verdicts: make([]storedVerdict, 0, len(entries))}
	for _, e := range entries {
		sv := storedVerdict{
			Key:             e.key,
			Stats:           e.res.Stats,
			Errors:          core.EncodeErrorReports(e.res.Errors),
			Truncated:       e.res.Truncated,
			TruncatedReason: e.res.TruncatedReason,
		}
		sv.Stats.Errors = nil
		vf.Verdicts = append(vf.Verdicts, sv)
	}
	data, err := json.Marshal(vf)
	if err != nil {
		return
	}
	s.store.writeFile(verdictFile, data)
}
