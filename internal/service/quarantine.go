package service

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hmc/internal/backend"
	"hmc/internal/core"
)

// quarantineKind tags disagreement artifacts (the Kind field and the file
// name prefix) so `hmc -repro` can tell them apart from crash artifacts.
const quarantineKind = "backend-disagreement"

// QuarantineArtifact is a self-contained repro of a cross-backend
// disagreement: two engines both claimed exhaustive coverage of the same
// program under the same model and returned conflicting verdicts. The
// artifact carries the program (replayable exactly like a CrashArtifact),
// both verdicts, the diff, and the full attestation trail; `hmc -repro`
// re-runs both backends from it.
type QuarantineArtifact struct {
	// Schema gates replay exactly like CrashArtifact.Schema: a
	// disagreement from another engine schema is not reproducible here.
	Schema int    `json:"schema"`
	Kind   string `json:"kind"` // always quarantineKind

	JobID       string    `json:"job_id"`
	Time        time.Time `json:"time"`
	Program     string    `json:"program"`
	Fingerprint string    `json:"fingerprint"`

	// JobSpec and ProgramDump are the disputed job, exactly as in
	// CrashArtifact.
	JobSpec
	ProgramDump string `json:"program_dump"`

	// Diff names the first divergence; Winner and Dissenter are the two
	// complete verdicts; Attempts is every backend's part in the race.
	Diff      string            `json:"diff"`
	Winner    *backend.Verdict  `json:"winner"`
	Dissenter *backend.Verdict  `json:"dissenter"`
	Attempts  []backend.Attempt `json:"attempts"`
}

// LoadQuarantineArtifact reads one disagreement artifact written by the
// service, rejecting files of the wrong kind or engine schema.
func LoadQuarantineArtifact(path string) (*QuarantineArtifact, error) {
	a := &QuarantineArtifact{}
	if err := loadArtifact(path, "quarantine", a, &a.Schema); err != nil {
		return nil, err
	}
	if a.Kind != quarantineKind {
		return nil, fmt.Errorf("quarantine artifact %s: kind %q, want %q", path, a.Kind, quarantineKind)
	}
	return a, nil
}

// IsQuarantineArtifact sniffs whether the file at path is a disagreement
// artifact (vs. a crash artifact) without fully decoding it — the
// dispatch behind `hmc -repro`.
func IsQuarantineArtifact(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var peek struct {
		Kind string `json:"kind"`
	}
	return json.Unmarshal(data, &peek) == nil && peek.Kind == quarantineKind
}

// buildQuarantine assembles the disagreement repro for a quarantined job.
func (s *Service) buildQuarantine(j *Job, out *backend.Outcome) *QuarantineArtifact {
	d := out.Disagreement
	return &QuarantineArtifact{
		Schema:      core.SchemaVersion,
		Kind:        quarantineKind,
		JobID:       j.id,
		Time:        time.Now().UTC(),
		Program:     j.req.Program.Name,
		Fingerprint: j.fingerprint,
		JobSpec:     j.req.JobSpec,
		ProgramDump: j.req.Program.String(),
		Diff:        d.Diff,
		Winner:      d.Winner,
		Dissenter:   d.Dissenter,
		Attempts:    out.Attempts,
	}
}
