// Fixture for the determinism analyzer: wall clock, global rand and map
// iteration in a counter-affecting package, with each sanctioned escape
// alongside its violation.
package core

import (
	"math/rand"
	"sort"
	"time"
)

// wallClock feeds a counter from the wall clock — the canonical violation.
func wallClock() int64 {
	return time.Now().UnixNano() // want `time\.Now in a counter-affecting package`
}

// annotatedClock is the sanctioned shape: timing with a stated reason.
func annotatedClock() time.Time {
	return time.Now() //hmc:nondet(progress timing never feeds counters)
}

// emptyReason is an annotation that explains nothing — itself a finding,
// and it must not silently allow the call.
func emptyReason() time.Time {
	return time.Now() //hmc:nondet() // want `hmc:nondet annotation needs a non-empty reason`
}

// globalDraw hits the process-global shared source.
func globalDraw() int {
	return rand.Intn(10) // want `rand\.Intn draws from the global source`
}

// seededDraw is fine: methods on a *rand.Rand make the seed locally
// visible, so determinism is the caller's explicit choice.
func seededDraw(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// annotatedJitter is the pool-backoff shape.
func annotatedJitter() int64 {
	return rand.Int63n(100) //hmc:nondet(backoff jitter never reaches results)
}

// unsortedKeys builds ordered output straight from a map range.
func unsortedKeys(m map[string]int) []string {
	var out []string
	for k := range m { // want `map iteration order is randomized: unsortedKeys`
		out = append(out, k)
	}
	return out
}

// sortedKeys is the blessed collect-then-sort idiom.
func sortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// helperSorted is the project-helper variant of collect-then-sort.
func helperSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	SortKeys(out)
	return out
}

// SortKeys stands in for the repo's Sort* helpers (core's sortedSetKeys).
func SortKeys(ks []string) {
	sort.Strings(ks)
}

// annotatedFold is an order-invariant fold with a stated reason.
func annotatedFold(m map[string]int) int {
	n := 0
	for _, v := range m { //hmc:nondet(sum is order-invariant)
		n += v
	}
	return n
}

// sliceRange is not a map range and needs nothing.
func sliceRange(xs []int) int {
	n := 0
	for _, v := range xs {
		n += v
	}
	return n
}
