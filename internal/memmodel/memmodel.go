// Package memmodel defines axiomatic memory consistency models over
// execution-graph views. A model is a predicate on graphs; the explorer in
// internal/core is parametric in the model, which is exactly the shape of
// the HMC algorithm ("model checking for hardware memory models"): the same
// exploration works for SC, x86-TSO, PSO, release/acquire, plain coherence,
// and the dependency-aware hardware model IMM-lite.
//
// All models share two axioms:
//
//   - coherence (SC-per-location): acyclic(po-loc ∪ rf ∪ co ∪ fr);
//   - atomicity: an atomic update is coherence-immediately after the write
//     it reads from (no intervening write, and no two updates reading the
//     same write).
//
// Each model then adds its own ordering axiom; see the per-model files.
package memmodel

import (
	"fmt"
	"sync"

	"hmc/internal/eg"
	"hmc/internal/relation"
)

// Model is a memory consistency model: a predicate over execution graphs.
// Consistency must be *extensible-monotone*: every restriction of a
// consistent graph to a per-thread-prefix-closed subset (with co projected)
// is consistent. All acyclicity-style axioms have this property, which is
// what makes prefix pruning in the explorer sound and complete.
type Model interface {
	// Name returns the model's short name (e.g. "tso").
	Name() string
	// Consistent reports whether the graph of v is allowed by the model.
	Consistent(v *eg.View) bool
}

// deltaPool recycles incremental-acyclicity checkers across consistency
// checks: getDelta hands out a DeltaRel reset to the requested universe,
// putDelta returns it. The per-check cost is then the streamed edges, not
// allocation.
var deltaPool = sync.Pool{New: func() any { return relation.NewDelta(0) }}

func getDelta(n int) *relation.DeltaRel {
	d := deltaPool.Get().(*relation.DeltaRel)
	d.Reset(n)
	return d
}

func putDelta(d *relation.DeltaRel) { deltaPool.Put(d) }

// Coherent reports SC-per-location: acyclic(po-loc ∪ rf ∪ co ∪ fr).
// Every model includes this axiom. The union is never materialized: the
// edge sets stream into an incremental acyclicity checker that rejects at
// the first cycle-closing edge (the test oracle LegacyCoherent keeps the
// from-scratch formulation).
func Coherent(v *eg.View) bool {
	d := getDelta(v.N)
	ok := d.AddRelAcyclic(v.Co()) && d.AddRelAcyclic(v.Fr()) &&
		d.AddRelAcyclic(v.PoLoc()) && d.AddRelAcyclic(v.Rf())
	putDelta(d)
	return ok
}

// Atomic reports RMW atomicity: each update sits coherence-immediately
// after its rf source. This also rules out two updates reading from the
// same write.
func Atomic(v *eg.View) bool {
	g := v.G
	for i := range v.Events {
		ev := &v.Events[i]
		if ev.Kind != eg.KUpdate {
			continue
		}
		w, ok := g.RF(ev.ID)
		if !ok {
			continue // incomplete read; nothing to check yet
		}
		if g.CoIndex(ev.Loc, ev.ID) != g.CoIndex(ev.Loc, w)+1 {
			return false
		}
	}
	return true
}

// baseConsistent bundles the two shared axioms.
func baseConsistent(v *eg.View) bool { return Atomic(v) && Coherent(v) }

// Registry maps model names to constructors, for CLIs and the harness.
var registry = map[string]func() Model{
	"sc":      func() Model { return SC{} },
	"tso":     func() Model { return TSO{} },
	"pso":     func() Model { return PSO{} },
	"arm":     func() Model { return ARM{} },
	"ra":      func() Model { return RA{} },
	"rc11":    func() Model { return RC11{} },
	"relaxed": func() Model { return Relaxed{} },
	"imm":     func() Model { return IMM{} },
}

// ByName returns the model registered under name.
func ByName(name string) (Model, error) {
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("memmodel: unknown model %q (have %v)", name, Names())
	}
	return ctor(), nil
}

// Names returns the registered model names in a fixed order, strongest
// first (arm is ARMv8-lite: multi-copy-atomic hardware; imm is IMM-lite:
// POWER-flavoured, non-multi-copy-atomic).
func Names() []string {
	return []string{"sc", "tso", "pso", "arm", "ra", "rc11", "relaxed", "imm"}
}

// All returns one instance of every registered model, strongest first.
func All() []Model {
	out := make([]Model, 0, len(registry))
	for _, n := range Names() {
		m, _ := ByName(n)
		out = append(out, m)
	}
	return out
}
