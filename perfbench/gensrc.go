package main

import (
	"fmt"
	"math/rand"
	"strings"

	"hmc/internal/litmus"
)

// serveModels are the hardware models the serve workload checks against.
var serveModels = []string{"tso", "pso", "arm", "imm"}

const (
	// hotPairs is the number of (corpus test, model) pairs that repeat.
	// Few enough that each recurs every few dozen submissions, long before
	// the misses in between push it out of the service's 128-entry LRU
	// verdict cache, so nearly every repeat hits.
	hotPairs = 16
	// poolSources is the number of generated sources. They are submitted
	// in turn, so one returns only after poolSources other misses — far
	// past the cache's 128 entries — and always misses. The pool is large
	// so that its mean miss cost barely differs between seeds.
	poolSources = 1024
	// hotFrac is the share of submissions that repeat a hot pair. It is
	// kept below one half so the median verdict is a miss, not the
	// boundary between the hit and miss latency clusters, which would make
	// it jump between runs.
	hotFrac = 0.45
	// maxGenExecs caps a generated source's executions under its model.
	// Without it a few sources with hundreds of executions set the miss
	// cost, and which few a seed draws would move the run's throughput.
	maxGenExecs = 24
	// seqLen is the length of the precomputed job sequence; a run that
	// submits more starts it over.
	seqLen = 1 << 16
)

// serveJob is one submission: a corpus test by name or a generated litmus
// source, under a model, with its reference verdict.
type serveJob struct {
	Test   string
	Source string
	Model  string
	ref    serveRef
}

// jobSequence derives the serve workload's submissions from seed: the
// distinct (program, model) pairs with their references, and the order
// they are submitted in, as indices into pairs. Generated sources come
// first in pairs, then the hot corpus pairs. The same seed gives the same
// sequence.
func jobSequence(seed int64) (pairs []serveJob, seq []int, err error) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < poolSources; i++ {
		j := serveJob{Model: serveModels[i%len(serveModels)]}
		for j.Source == "" || j.ref.stats.Executions > maxGenExecs {
			j.Source = genSource(rng, i)
			if j.ref, err = reference(j); err != nil {
				return nil, nil, err
			}
		}
		pairs = append(pairs, j)
	}
	var eligible []serveJob
	for _, tc := range litmus.Corpus() {
		for _, m := range serveModels {
			if _, ok := tc.Allowed[m]; ok {
				eligible = append(eligible, serveJob{Test: tc.Name, Model: m})
			}
		}
	}
	for _, k := range rng.Perm(len(eligible))[:hotPairs] {
		j := eligible[k]
		if j.ref, err = reference(j); err != nil {
			return nil, nil, err
		}
		pairs = append(pairs, j)
	}
	seq = make([]int, seqLen)
	fresh := 0
	for i := range seq {
		if rng.Float64() < hotFrac {
			seq[i] = poolSources + rng.Intn(hotPairs)
		} else {
			seq[i] = fresh % poolSources
			fresh++
		}
	}
	return pairs, seq, nil
}

// genSource writes a small random litmus test: two or three threads of two
// or three stores, loads, fences and atomic updates over two or three
// locations, and an exists clause over some of the loaded registers. Every
// stored constant is derived from i, so no two generated sources share a
// program fingerprint (and so a verdict-cache entry).
func genSource(rng *rand.Rand, i int) string {
	threads := 2 + rng.Intn(2)
	locs := []string{"x", "y", "z"}[:threads]
	next := int64(1000 * (i + 1))
	written := map[string][]int64{}
	store := func(loc string) int64 {
		next++
		written[loc] = append(written[loc], next)
		return next
	}
	type reg struct {
		thread    int
		name, loc string
	}
	var regs []reg
	load := func(t int, loc string) string {
		r := reg{thread: t, name: fmt.Sprintf("r%d", len(regs)), loc: loc}
		regs = append(regs, r)
		return r.name
	}
	var b strings.Builder
	fmt.Fprintf(&b, "name gen%d\n", i)
	for t := 0; t < threads; t++ {
		var ins []string
		for k, n := 0, 2+rng.Intn(2); k < n; k++ {
			loc := locs[rng.Intn(len(locs))]
			switch op := rng.Intn(10); {
			case op < 4:
				ins = append(ins, fmt.Sprintf("W %s %d", loc, store(loc)))
			case op < 8:
				ins = append(ins, fmt.Sprintf("%s = R %s", load(t, loc), loc))
			case op < 9:
				ins = append(ins, "F "+[]string{"full", "lw", "ld"}[rng.Intn(3)])
			default:
				r := load(t, loc)
				if rng.Intn(2) == 0 {
					ins = append(ins, fmt.Sprintf("%s = FADD %s 1", r, loc))
				} else {
					ins = append(ins, fmt.Sprintf("%s = XCHG %s %d", r, loc, store(loc)))
				}
			}
		}
		if t == threads-1 && len(regs) == 0 {
			ins = append(ins, fmt.Sprintf("%s = R %s", load(t, locs[0]), locs[0]))
		}
		fmt.Fprintf(&b, "T%d: %s\n", t, strings.Join(ins, " ; "))
	}
	// The exists clause asks for one or two loaded values: 0 (the initial
	// value) or a constant some thread stores there.
	var atoms []string
	for _, k := range rng.Perm(len(regs))[:min(len(regs), 1+rng.Intn(2))] {
		r := regs[k]
		vals := append([]int64{0}, written[r.loc]...)
		atoms = append(atoms, fmt.Sprintf("T%d:%s=%d", r.thread, r.name, vals[rng.Intn(len(vals))]))
	}
	fmt.Fprintf(&b, "exists %s\n", strings.Join(atoms, " & "))
	return b.String()
}
