package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// This file validates the tentpole resume-equivalence property: killing a
// run at an arbitrary branch point (Options.FailAfter — deterministic
// fault injection, no wall-clock races) and resuming from the final
// checkpoint — repeatedly, kill after kill — must land on exactly the
// same execution set and the same Stats counters as an uninterrupted run.
// Every checkpoint crossing a leg boundary goes through the full
// encode→decode cycle, and each encoding is asserted byte-identical after
// a round trip, so the wire codec itself is in the loop.

// encodeDecode round-trips cp through the wire format, asserting the
// encoding is canonical (encode→decode→encode is byte-identical).
func encodeDecode(t *testing.T, cp *Checkpoint) *Checkpoint {
	t.Helper()
	data, err := cp.Encode()
	if err != nil {
		t.Fatalf("encode checkpoint: %v", err)
	}
	dec, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decode checkpoint: %v", err)
	}
	data2, err := dec.Encode()
	if err != nil {
		t.Fatalf("re-encode checkpoint: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("checkpoint round trip not byte-identical:\n first: %s\nsecond: %s", data, data2)
	}
	return dec
}

// runChained explores p killing the run at every k-th branch point and
// resuming from the (encode→decode round-tripped) checkpoint, until a leg
// runs to completion. It returns the final result and the number of kills
// survived. k must be ≥ 2: a leg killed at its very first branch point
// re-pends the same frontier and makes no progress, which faithfully
// models a process that dies on startup — and never terminates.
func runChained(t *testing.T, p *prog.Program, model string, base Options, k int) (*Result, int) {
	t.Helper()
	if k < 2 {
		t.Fatalf("runChained needs k >= 2, got %d", k)
	}
	m, err := memmodel.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	kills := 0
	var resume *Checkpoint
	for leg := 0; ; leg++ {
		if leg > 100000 {
			t.Fatalf("resume chain did not terminate (k=%d)", k)
		}
		opts := base
		opts.Model = m
		opts.DedupSafeguard = true
		opts.CollectKeys = true
		opts.FailAfter = k
		opts.ResumeFrom = resume
		res, err := Explore(p, opts)
		if err != nil {
			t.Fatalf("leg %d (k=%d): %v", leg, k, err)
		}
		if !res.Interrupted {
			return res, kills
		}
		if res.Checkpoint == nil {
			t.Fatalf("leg %d (k=%d): interrupted result without checkpoint", leg, k)
		}
		kills++
		resume = encodeDecode(t, res.Checkpoint)
	}
}

// assertSameExploration compares a resumed run against the straight run.
//
// The semantic invariants always hold: identical execution-key sets,
// Executions, ExistsCount, Blocked, Duplicates, StuckReads, errors and
// truncation status — the checkpoint cut must neither lose nor repeat
// verdict-relevant work. These are exactly the invariants the engine
// guarantees for parallel-vs-sequential runs (parallel_test.go).
//
// With strict set, the search-effort counters (States, MemoHits,
// revisits, consistency checks) must match too. That is the common case,
// but not an engine invariant: the memo key excludes stamps, so two
// graphs with equal keys but different relative stamp orders collapse to
// one memo entry, and which representative gets expanded — whose stamp
// order then steers revisit keep-sets — is decided by arrival order. A
// resume cut reorders arrivals exactly like Workers>1 does, so effort can
// shift by a few states on rare programs (and under Symmetry, where the
// collapse is coarser still, routinely). That order dependence is
// intrinsic to memoized exploration, not a checkpointing defect.
func assertSameExploration(t *testing.T, label string, straight, resumed *Result, strict bool) {
	t.Helper()
	if got, want := sortedKeys(resumed), sortedKeys(straight); len(got) != len(want) {
		t.Errorf("%s: execution set has %d keys, straight run %d", label, len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: execution set diverges at key %d:\n got %s\nwant %s", label, i, got[i], want[i])
				break
			}
		}
	}
	type counts struct {
		Executions, ExistsCount, Blocked, Duplicates, States, MemoHits int
		RevisitsTried, RevisitsTaken, RevisitsRepairFail, RevisitsPorf int
		ConsistencyChecks, StuckReads, MaxGraphEvents, Errs, DepViol   int
		StaticPrunedRf, StaticPrunedCo, StaticPrunedScans              int
		Truncated                                                      bool
		Reason                                                         string
	}
	of := func(r *Result) counts {
		c := counts{
			r.Executions, r.ExistsCount, r.Blocked, r.Duplicates, r.States, r.MemoHits,
			r.RevisitsTried, r.RevisitsTaken, r.RevisitsRepairFail, r.RevisitsPorfSkip,
			r.ConsistencyChecks, r.StuckReads, r.MaxGraphEvents, len(r.Errors), r.DepViolations,
			r.StaticPrunedRf, r.StaticPrunedCo, r.StaticPrunedScans,
			r.Truncated, r.TruncatedReason,
		}
		if !strict {
			c.States, c.MemoHits, c.RevisitsTried, c.RevisitsTaken = 0, 0, 0, 0
			c.RevisitsRepairFail, c.RevisitsPorf, c.ConsistencyChecks = 0, 0, 0
			c.MaxGraphEvents = 0
			c.StaticPrunedRf, c.StaticPrunedCo, c.StaticPrunedScans = 0, 0, 0
		}
		return c
	}
	if got, want := of(resumed), of(straight); got != want {
		t.Errorf("%s: counters diverge:\n resumed %+v\nstraight %+v", label, got, want)
	}
}

// killPoints samples the branch points to kill at. The total number of
// branch points in a straight run is States+MemoHits (every visit entry
// either inserts into the memo or hits it); small spaces are killed at
// every point, larger ones at a spread of early, middle and late points.
func killPoints(total int, short bool) []int {
	if total < 2 {
		return nil
	}
	exhaustive := 24
	if short {
		exhaustive = 8
	}
	if total <= exhaustive {
		ks := make([]int, 0, total-1)
		for k := 2; k <= total; k++ {
			ks = append(ks, k)
		}
		return ks
	}
	cand := []int{2, 3, 5, 8, total / 4, total / 2, 3 * total / 4, total - 1, total}
	if short {
		cand = []int{2, 5, total / 2, total}
	}
	seen := map[int]bool{}
	var ks []int
	for _, k := range cand {
		if k >= 2 && k <= total && !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	return ks
}

// TestResumeEquivalenceCorpus is the crossval-style tentpole assertion
// over the litmus corpus × memory models: straight run vs kill-at-every-
// k-th-branch-point + resume.
func TestResumeEquivalenceCorpus(t *testing.T) {
	models := memmodel.Names()
	if testing.Short() {
		models = []string{"sc", "tso", "imm"}
	}
	for _, tc := range litmus.Corpus() {
		for _, model := range models {
			straight := explore(t, tc.P, model, Options{CollectKeys: true})
			total := straight.States + straight.MemoHits
			for _, k := range killPoints(total, testing.Short()) {
				resumed, kills := runChained(t, tc.P, model, Options{}, k)
				label := fmt.Sprintf("%s under %s, kill every %d of %d branch points (%d kills)",
					tc.Name, model, k, total, kills)
				assertSameExploration(t, label, straight, resumed, true)
				if k <= total && kills == 0 {
					t.Errorf("%s: expected at least one injected kill", label)
				}
			}
		}
	}
}

// TestResumeEquivalenceRandom widens the net: generated random programs
// (the same generator the optimality suite trusts), each killed at a
// seed-dependent branch point and resumed until done.
func TestResumeEquivalenceRandom(t *testing.T) {
	const seeds = 250
	models := []string{"imm", "tso", "arm"}
	step := 1
	if testing.Short() {
		step = 5
	}
	for seed := 0; seed < seeds; seed += step {
		p := gen.Random(int64(seed))
		model := models[seed%len(models)]
		straight := explore(t, p, model, Options{CollectKeys: true})
		total := straight.States + straight.MemoHits
		if total < 2 {
			continue
		}
		k := 2 + seed%19
		if k > total {
			k = total
		}
		resumed, _ := runChained(t, p, model, Options{}, k)
		assertSameExploration(t,
			fmt.Sprintf("gen.Random(%d) under %s, k=%d", seed, model, k), straight, resumed, false)
	}
}

// TestResumeEquivalenceWithOptions exercises the semantic options that
// ride inside the checkpoint signature — symmetry reduction, static
// pruning, the porf ablation — through a kill/resume cycle.
func TestResumeEquivalenceWithOptions(t *testing.T) {
	cases := []struct {
		name string
		p    *prog.Program
		opts Options
	}{
		{"symmetry-inc", gen.IncN(3, 2), Options{Symmetry: true}},
		{"static-indexer", gen.IndexerN(2), Options{StaticAnalysis: true}},
		{"porf-lb", mustCorpus(t, "LB").P, Options{PorfOnlyRevisits: true}},
		{"maxevents-sb", mustCorpus(t, "SB").P, Options{MaxEvents: 3}},
	}
	for _, c := range cases {
		straight := explore(t, c.p, "imm", withKeys(c.opts))
		total := straight.States + straight.MemoHits
		for _, k := range killPoints(total, true) {
			resumed, _ := runChained(t, c.p, "imm", c.opts, k)
			assertSameExploration(t, fmt.Sprintf("%s k=%d", c.name, k), straight, resumed, !c.opts.Symmetry)
		}
	}
}

func withKeys(o Options) Options { o.CollectKeys = true; return o }

// TestResumeMismatchRejected: a checkpoint must only resume the run it
// came from — different program, model, or semantic options are refused
// with ErrCheckpointMismatch, not silently merged.
func TestResumeMismatchRejected(t *testing.T) {
	sb, lb := mustCorpus(t, "SB").P, mustCorpus(t, "LB").P
	imm, _ := memmodel.ByName("imm")
	tso, _ := memmodel.ByName("tso")
	res, err := Explore(sb, Options{Model: imm, CollectKeys: true, FailAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoint == nil {
		t.Fatal("no checkpoint from FailAfter run")
	}
	cp := res.Checkpoint
	cases := []struct {
		name string
		p    *prog.Program
		opts Options
	}{
		{"wrong program", lb, Options{Model: imm, CollectKeys: true}},
		{"wrong model", sb, Options{Model: tso, CollectKeys: true}},
		{"wrong options", sb, Options{Model: imm, CollectKeys: true, Symmetry: true}},
	}
	for _, c := range cases {
		c.opts.ResumeFrom = cp
		if _, err := Explore(c.p, c.opts); !isMismatch(err) {
			t.Errorf("%s: got %v, want ErrCheckpointMismatch", c.name, err)
		}
	}
	// Leg checkpoints of the removed frontier sharding carried an
	// ownership spec and forwarded graphs; whole-run checkpoints never
	// did, so the strict decoder refuses them as unknown fields.
	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []string{
		`"shard":"4:1",`,
		`"forwarded":[{"bucket":0,"graph":` + string(cp.Pending[0]) + `}],`,
	} {
		spliced := append([]byte("{"+leg), data[1:]...)
		if _, err := DecodeCheckpoint(spliced); err == nil {
			t.Errorf("leg checkpoint with %.20s... decoded; want it refused", leg)
		}
	}
	// The matching run resumes fine.
	good, err := Explore(sb, Options{Model: imm, CollectKeys: true, ResumeFrom: cp})
	if err != nil {
		t.Fatalf("matching resume failed: %v", err)
	}
	straight := explore(t, sb, "imm", Options{CollectKeys: true})
	if good.Executions != straight.Executions {
		t.Errorf("resumed executions %d, straight %d", good.Executions, straight.Executions)
	}
}

func isMismatch(err error) bool {
	return errors.Is(err, ErrCheckpointMismatch)
}

// FuzzCheckpointDecode asserts the decoder's contract on untrusted bytes:
// corrupt, truncated or adversarial snapshots are rejected with an error
// — never a panic — and anything accepted re-encodes and re-decodes
// cleanly.
func FuzzCheckpointDecode(f *testing.F) {
	// Seed with real checkpoints (mid-run and near-final) so the fuzzer
	// starts from structurally valid inputs.
	imm, _ := memmodel.ByName("imm")
	for _, name := range []string{"SB", "LB", "MP"} {
		tc, ok := litmus.ByName(name)
		if !ok {
			continue
		}
		for _, k := range []int{2, 6} {
			res, err := Explore(tc.P, Options{Model: imm, DedupSafeguard: true, CollectKeys: true, FailAfter: k})
			if err != nil || res.Checkpoint == nil {
				continue
			}
			if data, err := res.Checkpoint.Encode(); err == nil {
				f.Add(data)
				if len(data) > 10 {
					f.Add(data[:len(data)/2]) // truncated snapshot
				}
			}
		}
	}
	f.Add([]byte(`{"version":1,"schema":1}`))
	f.Add([]byte(`{"version":1,"schema":1,"pending":[{"threads":1,"locs":1,"events":[{"t":0,"i":0,"k":2}]}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		enc, err := cp.Encode()
		if err != nil {
			t.Fatalf("accepted checkpoint failed to re-encode: %v", err)
		}
		if _, err := DecodeCheckpoint(enc); err != nil {
			t.Fatalf("re-encoded checkpoint failed to decode: %v", err)
		}
		for _, raw := range cp.Pending {
			if _, err := decodeWireGraph(raw); err != nil {
				t.Fatalf("accepted checkpoint carries undecodable pending graph: %v", err)
			}
		}
	})
}
