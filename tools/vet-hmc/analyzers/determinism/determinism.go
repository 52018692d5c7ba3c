// Package determinism enforces the repo's central soundness invariant:
// exploration is deterministic. Identical execution sets across Workers
// counts, exactly-once resume across checkpoint cuts (core.Checkpoint)
// and the equivalence tests that pin both all assume
// that the same program explored twice produces the same bytes. Three
// constructs silently break that in Go, and this analyzer flags each in
// the counter-affecting packages (internal/{core,eg,relation,backend}):
//
//   - time.Now — wall-clock values must never feed counters, keys or
//     serialized state. Legitimate uses (progress timestamps, phase
//     timers) carry //hmc:nondet(reason).
//   - the global math/rand source — rand.Intn and friends draw from a
//     process-global, concurrently-shared source; randomized algorithms
//     must use a rand.New(rand.NewSource(seed)) with a deterministic
//     seed (core.Estimate does) or annotate the site.
//   - map iteration — Go randomizes range order, so a map range that
//     builds ordered output, feeds a hash, or writes serialized state is
//     nondeterministic. The blessed idiom is collect-then-sort: a range
//     whose enclosing function also calls a sort routine is accepted
//     (checkpoint.go's sortedSetKeys). Order-invariant folds (sums,
//     max, set-to-set copies) annotate instead.
//
// Every exception is therefore visible at the call site with a reason —
// the discipline the analyzer exists to keep.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"hmc/tools/vet-hmc/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flags time.Now, global math/rand draws and unsorted map iteration " +
		"in the counter-affecting packages (internal/{core,eg,relation,backend}); " +
		"legitimate sites carry //hmc:nondet(reason)",
	Match: analysis.HasSuffix(
		"internal/core", "internal/eg", "internal/relation", "internal/backend",
	),
	Run: run,
}

// globalRandFuncs are the math/rand package-level functions that consume
// the shared global source. Constructors (New, NewSource, NewZipf) are
// fine: determinism is then the seed's problem, which is locally visible.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// sortFuncs are the blessed determinizers: a map range in a function that
// also sorts is the collect-then-sort idiom.
var sortFuncs = map[string]bool{
	"sort.Sort": true, "sort.Stable": true, "sort.Strings": true,
	"sort.Ints": true, "sort.Float64s": true, "sort.Slice": true,
	"sort.SliceStable": true,
	"slices.Sort":      true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

func run(pass *analysis.Pass) error {
	analysis.Funcs(pass.Files, func(fn *ast.FuncDecl) {
		sorts := callsSorter(pass, fn)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n, sorts, fn.Name.Name)
			}
			return true
		})
	})
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	obj := analysis.CalleeObj(pass.TypesInfo, call)
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if obj.Name() == "Now" && !pass.Allowed("nondet", call.Pos()) {
			pass.Reportf(call.Pos(),
				"time.Now in a counter-affecting package: wall-clock values must not feed counters, keys or checkpoints (annotate legitimate timing with //hmc:nondet(reason))")
		}
	case "math/rand", "math/rand/v2":
		// Methods on a *rand.Rand are fine: the value was built by
		// rand.New(rand.NewSource(seed)), so determinism is the locally
		// visible seed's concern. Only the package-level draws hit the
		// shared global source.
		if fn, ok := obj.(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return
			}
		}
		if globalRandFuncs[obj.Name()] && !pass.Allowed("nondet", call.Pos()) {
			pass.Reportf(call.Pos(),
				"rand.%s draws from the global source: use rand.New(rand.NewSource(seed)) with a deterministic seed, or annotate with //hmc:nondet(reason)", obj.Name())
		}
	}
}

func checkRange(pass *analysis.Pass, rng *ast.RangeStmt, fnSorts bool, fnName string) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if fnSorts || pass.Allowed("nondet", rng.Pos()) {
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration order is randomized: %s neither sorts the collected result nor annotates the range with //hmc:nondet(reason) — ordered output, hashes and serialized state must use collect-then-sort", fnName)
}

// callsSorter reports whether fn's body calls any sort routine — the
// stdlib ones, or a project helper following the Sort*/sort* naming
// convention (core's sortedSetKeys): calling one is the
// collect-then-sort idiom's signature.
func callsSorter(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := analysis.CalleeObj(pass.TypesInfo, call); obj != nil && obj.Pkg() != nil {
			name := obj.Name()
			if sortFuncs[obj.Pkg().Path()+"."+name] ||
				strings.HasPrefix(name, "Sort") || strings.HasPrefix(name, "sort") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
