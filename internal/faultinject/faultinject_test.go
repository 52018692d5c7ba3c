package faultinject

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestDecideDeterministic: the same (seed, boundary, kind, ordinal)
// always decides the same way, different seeds decide differently
// somewhere, and the hit rate lands near the requested percentage.
func TestDecideDeterministic(t *testing.T) {
	const trials = 10000
	hits, diverged := 0, false
	for n := int64(1); n <= trials; n++ {
		a := decide(1, "journal", "write-err", n, 30)
		if a != decide(1, "journal", "write-err", n, 30) {
			t.Fatalf("decision for ordinal %d not stable", n)
		}
		if a != decide(2, "journal", "write-err", n, 30) {
			diverged = true
		}
		if a {
			hits++
		}
	}
	if !diverged {
		t.Error("seeds 1 and 2 produced identical schedules over 10k ordinals")
	}
	rate := float64(hits) / trials
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("30%% write-err rate measured at %.1f%%", rate*100)
	}
	if decide(1, "journal", "write-err", 7, 0) {
		t.Error("0%% must never fire")
	}
	if !decide(1, "journal", "write-err", 7, 100) {
		t.Error("100%% must always fire")
	}
}

// TestMixSeparatesBoundaries: the fault coordinates are independent —
// "write-err" firing on ordinal n says nothing about "sync-err" on n.
func TestMixSeparatesBoundaries(t *testing.T) {
	same := 0
	for n := int64(1); n <= 1000; n++ {
		if decide(9, "journal", "write-err", n, 50) == decide(9, "journal", "sync-err", n, 50) {
			same++
		}
	}
	if same < 400 || same > 600 {
		t.Errorf("write-err and sync-err decisions agree %d/1000 times; want ~500 (independent)", same)
	}
}

func TestPlanValidateAndLoad(t *testing.T) {
	bad := &Plan{Journal: &FileFaults{WriteErrPct: 150}}
	if err := bad.Validate(); err == nil {
		t.Error("write_err_pct=150 must be rejected")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(path, []byte(`{"seed": 7, "journal": {"write_err_pct": 30, "sync_err_at": [2]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Journal.WriteErrPct != 30 || len(p.Journal.SyncErrAt) != 1 {
		t.Errorf("loaded plan %+v lost fields", p)
	}
	if err := os.WriteFile(path, []byte(`{"journal": {"write_err_pct": -1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(path); err == nil {
		t.Error("invalid plan file must fail to load")
	}
}

// TestFileFaults drives the journal-file faults against a real file.
func TestFileFaults(t *testing.T) {
	open := func(t *testing.T, plan *Plan, obs Observer) SyncFile {
		f, err := os.Create(filepath.Join(t.TempDir(), "journal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		w := WrapFile(f, plan, obs)
		t.Cleanup(func() { w.Close() })
		return w
	}

	t.Run("enospc", func(t *testing.T) {
		var kinds []string
		w := open(t, &Plan{Journal: &FileFaults{WriteErrAt: []int64{2}}}, func(k string) { kinds = append(kinds, k) })
		if _, err := w.Write([]byte("first\n")); err != nil {
			t.Fatalf("write 1: %v", err)
		}
		if _, err := w.Write([]byte("second\n")); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("write 2 err = %v, want ENOSPC", err)
		}
		if _, err := w.Write([]byte("third\n")); err != nil {
			t.Fatalf("write 3 must recover: %v", err)
		}
		if len(kinds) != 1 || kinds[0] != "write-err" {
			t.Errorf("observer saw %v, want [write-err]", kinds)
		}
	})

	t.Run("short-write", func(t *testing.T) {
		w := open(t, &Plan{Journal: &FileFaults{ShortWriteAt: []int64{1}}}, nil)
		n, err := w.Write([]byte("0123456789"))
		if !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("err = %v, want ErrShortWrite", err)
		}
		if n != 5 {
			t.Errorf("short write reported %d bytes, want 5", n)
		}
	})

	t.Run("sync-err", func(t *testing.T) {
		w := open(t, &Plan{Journal: &FileFaults{SyncErrAt: []int64{1}}}, nil)
		if err := w.Sync(); !errors.Is(err, syscall.EIO) {
			t.Fatalf("sync 1 err = %v, want EIO", err)
		}
		if err := w.Sync(); err != nil {
			t.Fatalf("sync 2 must recover: %v", err)
		}
	})

	t.Run("untouched-without-faults", func(t *testing.T) {
		f, err := os.Create(filepath.Join(t.TempDir(), "j"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if w := WrapFile(f, &Plan{}, nil); w != SyncFile(f) {
			t.Error("plan without journal faults must return the file unwrapped")
		}
	})
}
