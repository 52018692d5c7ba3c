// Package relation provides dense binary relations over a finite universe
// {0, …, n-1}, represented as bit matrices. It is the substrate on which the
// axiomatic memory models are defined: every consistency predicate in
// internal/memmodel reduces to unions, compositions, closures and acyclicity
// checks of relations built with this package.
//
// Relations are mutable; operations that produce new relations are methods
// named after the operation (Union, Compose, …) and leave their operands
// untouched. Sizes are expected to be small (tens to a few hundred events),
// so the dense representation wins over sparse structures.
package relation

import (
	"fmt"
	"math/bits"
	"strings"
)

// wordsFor returns the number of 64-bit words needed for n bits.
func wordsFor(n int) int { return (n + 63) / 64 }

// Rel is a binary relation over {0, …, n-1}. The zero value is unusable;
// construct with New or Arena.New.
type Rel struct {
	n     int
	w     int      // words per row
	bits  []uint64 // row-major: row i occupies bits[i*w : (i+1)*w]
	arena *Arena   // allocation source for derived relations (nil: heap)
}

// New returns the empty relation over a universe of size n.
func New(n int) *Rel {
	if n < 0 {
		panic("relation: negative universe size")
	}
	w := wordsFor(n)
	return &Rel{n: n, w: w, bits: make([]uint64, n*w)}
}

// newLike allocates an empty relation over a universe of size n from the
// same source as r: r's arena when it has one, the heap otherwise. Every
// operation that produces a new relation routes through this, so derived
// relations inherit their operand's allocation discipline.
func (r *Rel) newLike(n int) *Rel {
	if r.arena != nil {
		return r.arena.New(n)
	}
	return New(n)
}

// Size returns the universe size n.
func (r *Rel) Size() int { return r.n }

// Add inserts the pair (a, b).
func (r *Rel) Add(a, b int) {
	r.check(a)
	r.check(b)
	r.bits[a*r.w+b/64] |= 1 << uint(b%64)
}

// AddRange inserts the pairs (a, b) for every b in [lo, hi), filling whole
// 64-bit words at a time instead of setting bits one by one. Dense interval
// relations (program order's same-thread suffixes, init-before-everything
// rows) build in O(n/64) per row this way.
func (r *Rel) AddRange(a, lo, hi int) {
	if lo >= hi {
		return
	}
	r.check(a)
	r.check(lo)
	r.check(hi - 1)
	row := r.bits[a*r.w : (a+1)*r.w]
	lw, hw := lo/64, (hi-1)/64
	loMask := ^uint64(0) << uint(lo%64)
	hiMask := ^uint64(0) >> uint(63-(hi-1)%64)
	if lw == hw {
		row[lw] |= loMask & hiMask
		return
	}
	row[lw] |= loMask
	for i := lw + 1; i < hw; i++ {
		row[i] = ^uint64(0)
	}
	row[hw] |= hiMask
}

// Remove deletes the pair (a, b).
func (r *Rel) Remove(a, b int) {
	r.check(a)
	r.check(b)
	r.bits[a*r.w+b/64] &^= 1 << uint(b%64)
}

// Has reports whether the pair (a, b) is in the relation.
func (r *Rel) Has(a, b int) bool {
	r.check(a)
	r.check(b)
	return r.bits[a*r.w+b/64]&(1<<uint(b%64)) != 0
}

func (r *Rel) check(i int) {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("relation: index %d out of range [0,%d)", i, r.n))
	}
}

// Clone returns a deep copy of r (allocated from r's arena, if any).
func (r *Rel) Clone() *Rel {
	c := r.newLike(r.n)
	copy(c.bits, r.bits)
	return c
}

// Clear removes every pair.
func (r *Rel) Clear() {
	for i := range r.bits {
		r.bits[i] = 0
	}
}

// Len returns the number of pairs in the relation.
func (r *Rel) Len() int {
	total := 0
	for _, word := range r.bits {
		total += bits.OnesCount64(word)
	}
	return total
}

// UnionWith adds every pair of o into r (in place). The universes must match.
func (r *Rel) UnionWith(o *Rel) *Rel {
	r.sameUniverse(o)
	for i, word := range o.bits {
		r.bits[i] |= word
	}
	return r
}

// Union returns a new relation r ∪ o.
func (r *Rel) Union(o *Rel) *Rel { return r.Clone().UnionWith(o) }

// IntersectWith keeps only the pairs also present in o (in place).
func (r *Rel) IntersectWith(o *Rel) *Rel {
	r.sameUniverse(o)
	for i, word := range o.bits {
		r.bits[i] &= word
	}
	return r
}

// Intersect returns a new relation r ∩ o.
func (r *Rel) Intersect(o *Rel) *Rel { return r.Clone().IntersectWith(o) }

// MinusWith removes every pair of o from r (in place).
func (r *Rel) MinusWith(o *Rel) *Rel {
	r.sameUniverse(o)
	for i, word := range o.bits {
		r.bits[i] &^= word
	}
	return r
}

// Minus returns a new relation r \ o.
func (r *Rel) Minus(o *Rel) *Rel { return r.Clone().MinusWith(o) }

func (r *Rel) sameUniverse(o *Rel) {
	if r.n != o.n {
		panic(fmt.Sprintf("relation: universe mismatch %d vs %d", r.n, o.n))
	}
}

// Compose returns the relational composition r ; o
// ({(a, c) | ∃b. (a,b) ∈ r ∧ (b,c) ∈ o}).
func (r *Rel) Compose(o *Rel) *Rel {
	r.sameUniverse(o)
	out := r.newLike(r.n)
	for a := 0; a < r.n; a++ {
		row := r.bits[a*r.w : (a+1)*r.w]
		dst := out.bits[a*out.w : (a+1)*out.w]
		for wi, word := range row {
			for word != 0 {
				b := wi*64 + bits.TrailingZeros64(word)
				word &= word - 1
				src := o.bits[b*o.w : (b+1)*o.w]
				for k, s := range src {
					dst[k] |= s
				}
			}
		}
	}
	return out
}

// UnionRow adds every successor of b as a successor of a: row a |= row b.
// Applied along a reverse topological order it accumulates reachability
// one row at a time.
func (r *Rel) UnionRow(a, b int) {
	r.check(a)
	r.check(b)
	src := r.bits[b*r.w : (b+1)*r.w]
	dst := r.bits[a*r.w : (a+1)*r.w]
	for i, word := range src {
		dst[i] |= word
	}
}

// Inverse returns the converse relation {(b, a) | (a, b) ∈ r}.
func (r *Rel) Inverse() *Rel {
	out := r.newLike(r.n)
	for a := 0; a < r.n; a++ {
		row := r.bits[a*r.w : (a+1)*r.w]
		for wi, word := range row {
			for word != 0 {
				b := wi*64 + bits.TrailingZeros64(word)
				word &= word - 1
				out.Add(b, a)
			}
		}
	}
	return out
}

// TransitiveClose computes the transitive closure of r in place
// (Warshall on bit rows; O(n²·n/64)).
func (r *Rel) TransitiveClose() *Rel {
	for k := 0; k < r.n; k++ {
		krow := r.bits[k*r.w : (k+1)*r.w]
		kw, kb := k/64, uint64(1)<<uint(k%64)
		for a := 0; a < r.n; a++ {
			if r.bits[a*r.w+kw]&kb != 0 {
				arow := r.bits[a*r.w : (a+1)*r.w]
				for i, word := range krow {
					arow[i] |= word
				}
			}
		}
	}
	return r
}

// Closure returns a new relation that is the transitive closure of r.
func (r *Rel) Closure() *Rel { return r.Clone().TransitiveClose() }

// Irreflexive reports whether no (i, i) pair is present.
func (r *Rel) Irreflexive() bool {
	for i := 0; i < r.n; i++ {
		if r.Has(i, i) {
			return false
		}
	}
	return true
}

// Acyclic reports whether the relation, viewed as a directed graph,
// has no cycle. Implemented as an iterative DFS with colour marks,
// so it does not require computing the closure.
func (r *Rel) Acyclic() bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := make([]uint8, r.n)
	// stack entries: node plus the iteration cursor packed separately.
	type frame struct {
		node int
		wi   int    // word index cursor
		word uint64 // remaining bits in current word
	}
	var stack []frame
	push := func(v int) frame {
		colour[v] = grey
		var f frame
		f.node = v
		f.wi = 0
		if r.w > 0 {
			f.word = r.bits[v*r.w]
		}
		return f
	}
	for s := 0; s < r.n; s++ {
		if colour[s] != white {
			continue
		}
		stack = append(stack[:0], push(s))
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			advanced := false
			for f.wi < r.w {
				if f.word == 0 {
					f.wi++
					if f.wi < r.w {
						f.word = r.bits[f.node*r.w+f.wi]
					}
					continue
				}
				b := f.wi*64 + bits.TrailingZeros64(f.word)
				f.word &= f.word - 1
				if b >= r.n {
					continue
				}
				switch colour[b] {
				case grey:
					return false
				case white:
					stack = append(stack, push(b))
					advanced = true
				}
				if advanced {
					break
				}
			}
			if !advanced && f.wi >= r.w {
				colour[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return true
}

// TopoSort returns one topological order of the relation's digraph, or
// ok=false if it is cyclic.
func (r *Rel) TopoSort() (order []int, ok bool) {
	indeg := make([]int, r.n)
	for a := 0; a < r.n; a++ {
		row := r.bits[a*r.w : (a+1)*r.w]
		for wi, word := range row {
			for word != 0 {
				b := wi*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if b < r.n {
					indeg[b]++
				}
			}
		}
	}
	queue := make([]int, 0, r.n)
	for i := 0; i < r.n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order = make([]int, 0, r.n)
	// Pop with a head cursor: re-slicing (queue = queue[1:]) retains the
	// full backing array and shifts the header O(n) times per sort.
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		order = append(order, v)
		row := r.bits[v*r.w : (v+1)*r.w]
		for wi, word := range row {
			for word != 0 {
				b := wi*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if b < r.n {
					indeg[b]--
					if indeg[b] == 0 {
						queue = append(queue, b)
					}
				}
			}
		}
	}
	if len(order) != r.n {
		return nil, false
	}
	return order, true
}

// Successors calls fn for every b with (a, b) ∈ r, in increasing order.
func (r *Rel) Successors(a int, fn func(b int)) {
	r.check(a)
	row := r.bits[a*r.w : (a+1)*r.w]
	for wi, word := range row {
		for word != 0 {
			b := wi*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if b < r.n {
				fn(b)
			}
		}
	}
}

// Pairs calls fn for every pair (a, b) ∈ r in row-major order.
func (r *Rel) Pairs(fn func(a, b int)) {
	for a := 0; a < r.n; a++ {
		r.Successors(a, func(b int) { fn(a, b) })
	}
}

// Equal reports whether r and o contain exactly the same pairs.
func (r *Rel) Equal(o *Rel) bool {
	if r.n != o.n {
		return false
	}
	for i := range r.bits {
		if r.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// String renders the relation as a sorted pair list, e.g. "{(0,1) (2,0)}".
func (r *Rel) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	r.Pairs(func(a, b int) {
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&sb, "(%d,%d)", a, b)
	})
	sb.WriteByte('}')
	return sb.String()
}

// ReachableFrom returns the set of nodes reachable from any seed by
// following edges forward (seeds included).
func (r *Rel) ReachableFrom(seeds ...int) []bool {
	seen := make([]bool, r.n)
	var stack []int
	for _, s := range seeds {
		r.check(s)
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r.Successors(v, func(b int) {
			if !seen[b] {
				seen[b] = true
				stack = append(stack, b)
			}
		})
	}
	return seen
}
