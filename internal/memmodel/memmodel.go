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
// Consistency must be *extensible-monotone*:
//
//   - prefix closure: every restriction of a consistent graph to a
//     per-thread-prefix-closed subset (with co projected) is consistent;
//   - extension: adding a *sink* to a consistent graph keeps it
//     consistent. A sink is a po-maximal event with no readers and no co
//     or fr successor: a fence, a read (or an update placed right after
//     its source) of the co-maximal write, or a co-maximal write.
//
// An axiom requiring a relation built from po, rf, co, fr and the
// dependencies (by union, sequence and closure) to be acyclic or
// irreflexive has both properties: no edge leaves a sink, so a sink lies
// on no cycle. Atomicity holds for a sink update, which sits right after
// its source. Prefix closure makes prefix pruning in the explorer sound
// and complete; extension lets the explorer admit sink extensions
// without calling Consistent (TestPropSinkExtensionsPassFullCheck in
// internal/core checks it for every registered model).
type Model interface {
	// Name returns the model's short name (e.g. "tso").
	Name() string
	// Consistent reports whether the graph of v is allowed by the model.
	Consistent(v *eg.View) bool
}

// scratch is the pooled working set of one consistency check: the
// incremental acyclicity checker every streaming predicate feeds, plus the
// per-event tables of the hardware models (imm.go, hardware_sb.go).
// getScratch hands one out with the checker reset to the requested
// universe, putScratch returns it; the per-check cost is then the streamed
// edges, not allocation.
type scratch struct {
	d     *relation.DeltaRel
	rfSrc []int // dense index of each read's rf source, or -1
	key   []int // eco position of each memory event, or -1 (see ecoKeys)
	order []int // d's topological order
	// nextFull / nextWW: the first full / store-store separator after
	// each event in its thread, or the thread's end (see storeBufferPPO).
	nextFull []int
	nextWW   []int
}

var scratchPool = sync.Pool{New: func() any { return &scratch{d: relation.NewDelta(0)} }}

func getScratch(n int) *scratch {
	s := scratchPool.Get().(*scratch)
	s.d.Reset(n)
	return s
}

func putScratch(s *scratch) { scratchPool.Put(s) }

// Coherent reports SC-per-location: acyclic(po-loc ∪ rf ∪ co ∪ fr).
// Every model includes this axiom. The union is never materialized: the
// edge sets stream into an incremental acyclicity checker that rejects at
// the first cycle-closing edge (the test oracle LegacyCoherent keeps the
// from-scratch formulation).
func Coherent(v *eg.View) bool {
	s := getScratch(v.N)
	d := s.d
	ok := d.AddRelAcyclic(v.Co()) && d.AddRelAcyclic(v.Fr()) &&
		d.AddRelAcyclic(v.PoLoc()) && d.AddRelAcyclic(v.Rf())
	putScratch(s)
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
