package relation

import "math/bits"

// DeltaRel is an incrementally maintained directed graph over {0, …, n-1}
// that stays provably acyclic: it carries a topological order of its nodes
// and updates it under edge insertion with the Pearce–Kelly algorithm.
// Inserting an edge costs O(1) when the edge already respects the order
// (the common case when edges arrive in roughly topological order) and
// otherwise a search/reorder bounded by the *affected region* — the nodes
// whose order indices lie between the edge's endpoints — rather than the
// whole graph. This is what lets a consistency predicate of the shape
// "union edge sets, then Acyclic()" check each added edge in amortized
// sub-linear time instead of re-running a full DFS per candidate graph.
//
// Snapshot/Rollback make the structure reusable across alternatives that
// share a common edge prefix: load the shared edges once, snapshot, then
// per alternative add its private edges and roll back. Rollback is O(work
// since the snapshot): both insertions and order reassignments are logged
// and undone, never recomputed.
//
// The zero value is unusable; construct with NewDelta and recycle with
// Reset. DeltaRel is not safe for concurrent use.
type DeltaRel struct {
	n            int
	succ, pred   *Rel     // adjacency in both directions (dense bit rows)
	sbits, pbits []uint64 // grow-only row storage backing succ/pred
	ord          []int    // ord[v] = v's index in the maintained topological order

	edgeLog []dedge     // edges inserted since Reset, in order
	ordLog  []ordChange // order reassignments, in order

	// DFS scratch, epoch-marked so Reset and per-edge searches never
	// re-clear them.
	mark      []uint32
	epoch     uint32
	stack     []int
	fwd, back []int // affected regions of the current insertion
}

type dedge struct{ a, b int }

type ordChange struct{ node, old int }

// Mark is a rollback point in a DeltaRel's insertion history.
type Mark struct{ edges, ords int }

// NewDelta returns an empty acyclic graph over a universe of size n.
func NewDelta(n int) *DeltaRel {
	d := &DeltaRel{}
	d.Reset(n)
	return d
}

// Reset recycles d into the empty graph over a universe of size n. Row
// storage is grow-only with headroom, so a pooled DeltaRel serving
// steadily growing graphs (the explorer's pattern: one more event per
// branch) reallocates O(log n) times, not per check.
func (d *DeltaRel) Reset(n int) {
	if n < 0 {
		panic("relation: negative universe size")
	}
	d.n = n
	w := wordsFor(n)
	need := n * w
	if cap(d.sbits) < need {
		ncap := n + n/2 + 8
		words := ncap * wordsFor(ncap)
		d.sbits = make([]uint64, words)
		d.pbits = make([]uint64, words)
		d.ord = make([]int, ncap)
		d.mark = make([]uint32, ncap)
		d.epoch = 0
	}
	if d.succ == nil {
		d.succ, d.pred = &Rel{}, &Rel{}
	}
	*d.succ = Rel{n: n, w: w, bits: d.sbits[:need]}
	*d.pred = Rel{n: n, w: w, bits: d.pbits[:need]}
	d.succ.Clear()
	d.pred.Clear()
	d.ord = d.ord[:cap(d.ord)][:n]
	d.mark = d.mark[:cap(d.mark)][:n]
	for i := 0; i < n; i++ {
		d.ord[i] = i
	}
	d.edgeLog = d.edgeLog[:0]
	d.ordLog = d.ordLog[:0]
}

// Size returns the universe size n.
func (d *DeltaRel) Size() int { return d.n }

// Len returns the number of edges inserted since Reset.
func (d *DeltaRel) Len() int { return len(d.edgeLog) }

// Has reports whether the edge (a, b) is present.
func (d *DeltaRel) Has(a, b int) bool { return d.succ.Has(a, b) }

// Order returns d's nodes in the maintained topological order, reusing
// dst's storage: every edge of d runs from an earlier node to a later one.
func (d *DeltaRel) Order(dst []int) []int {
	if cap(dst) < d.n {
		dst = make([]int, d.n)
	}
	dst = dst[:d.n]
	for v, i := range d.ord {
		dst[i] = v
	}
	return dst
}

// Snapshot returns a rollback point capturing the current edge set and
// topological order. Snapshots nest; rolling back to an older mark
// invalidates newer ones.
func (d *DeltaRel) Snapshot() Mark {
	return Mark{edges: len(d.edgeLog), ords: len(d.ordLog)}
}

// Rollback undoes every insertion (and the order maintenance it caused)
// performed after the mark was taken, in O(that work).
func (d *DeltaRel) Rollback(m Mark) {
	for i := len(d.edgeLog) - 1; i >= m.edges; i-- {
		e := d.edgeLog[i]
		d.succ.Remove(e.a, e.b)
		d.pred.Remove(e.b, e.a)
	}
	d.edgeLog = d.edgeLog[:m.edges]
	for i := len(d.ordLog) - 1; i >= m.ords; i-- {
		c := d.ordLog[i]
		d.ord[c.node] = c.old
	}
	d.ordLog = d.ordLog[:m.ords]
}

// AddEdgeAcyclic inserts the edge (a, b) if doing so keeps the graph
// acyclic and reports whether it did. A rejected edge — a self-loop, or
// one closing a cycle — leaves the structure exactly as it was. Inserting
// an edge that is already present is a no-op reporting true.
func (d *DeltaRel) AddEdgeAcyclic(a, b int) bool {
	d.succ.check(a)
	d.succ.check(b)
	if a == b {
		return false
	}
	// Raw bit addressing: this is the innermost loop of every consistency
	// check, so the Has/Add call layers (each re-checking bounds) are
	// flattened out.
	w := d.succ.w
	bw, bb := b>>6, uint64(1)<<uint(b&63)
	if d.succ.bits[a*w+bw]&bb != 0 {
		return true
	}
	if d.ord[a] >= d.ord[b] {
		// The edge contradicts the maintained order: discover the
		// affected region and reorder, or reject on a back-path.
		if !d.reorder(a, b) {
			return false
		}
	}
	d.succ.bits[a*w+bw] |= bb
	d.pred.bits[b*w+(a>>6)] |= 1 << uint(a&63)
	d.edgeLog = append(d.edgeLog, dedge{a, b})
	return true
}

// AddRelAcyclic streams every pair of r into d, stopping at the first
// edge that would close a cycle. It reports whether all edges were
// accepted; on false the edges accepted before the offender remain (use
// Snapshot/Rollback to undo).
func (d *DeltaRel) AddRelAcyclic(r *Rel) bool {
	if r.n != d.n {
		panic("relation: universe mismatch in AddRelAcyclic")
	}
	for a := 0; a < r.n; a++ {
		row := r.bits[a*r.w : (a+1)*r.w]
		for wi, word := range row {
			for word != 0 {
				b := wi*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if b < r.n && !d.AddEdgeAcyclic(a, b) {
					return false
				}
			}
		}
	}
	return true
}

// reorder handles an insertion (a, b) with ord[a] ≥ ord[b]: it searches
// forward from b within the affected window [ord[b], ord[a]] for a path
// back to a (a cycle: report false, change nothing) and otherwise
// reassigns the window's order indices so a precedes b (Pearce–Kelly:
// the backward frontier of a keeps its relative order and moves before
// the forward frontier of b, using exactly the index pool the two
// frontiers occupied).
func (d *DeltaRel) reorder(a, b int) bool {
	d.epoch++
	lo, hi := d.ord[b], d.ord[a]

	// Forward DFS from b over nodes with ord ≤ hi.
	d.fwd = d.fwd[:0]
	d.stack = append(d.stack[:0], b)
	d.mark[b] = d.epoch
	for len(d.stack) > 0 {
		v := d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
		if v == a {
			return false // path b ⇝ a exists: (a, b) closes a cycle
		}
		d.fwd = append(d.fwd, v)
		row := d.succ.bits[v*d.succ.w : (v+1)*d.succ.w]
		for wi, word := range row {
			for word != 0 {
				s := wi*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if s < d.n && d.mark[s] != d.epoch && d.ord[s] <= hi {
					d.mark[s] = d.epoch
					d.stack = append(d.stack, s)
				}
			}
		}
	}

	// Backward DFS from a over nodes with ord ≥ lo. The two regions are
	// disjoint: a node in both would witness the cycle found above.
	d.back = d.back[:0]
	d.stack = append(d.stack[:0], a)
	d.mark[a] = d.epoch
	for len(d.stack) > 0 {
		v := d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
		d.back = append(d.back, v)
		row := d.pred.bits[v*d.pred.w : (v+1)*d.pred.w]
		for wi, word := range row {
			for word != 0 {
				p := wi*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if p < d.n && d.mark[p] != d.epoch && d.ord[p] >= lo {
					d.mark[p] = d.epoch
					d.stack = append(d.stack, p)
				}
			}
		}
	}

	// Sort both regions by current order index (insertion sort: regions
	// are tiny and nearly sorted) and merge their index pools: backward
	// nodes first, then forward nodes, each keeping relative order.
	sortByOrd(d.back, d.ord)
	sortByOrd(d.fwd, d.ord)
	// Collect the pool of order indices the two regions occupy, ascending.
	// Both lists are ord-sorted and disjoint, so a two-finger merge works.
	pool := d.stack[:0] // reuse scratch
	i, j := 0, 0
	for i < len(d.back) || j < len(d.fwd) {
		switch {
		case i == len(d.back):
			pool = append(pool, d.ord[d.fwd[j]])
			j++
		case j == len(d.fwd):
			pool = append(pool, d.ord[d.back[i]])
			i++
		case d.ord[d.back[i]] < d.ord[d.fwd[j]]:
			pool = append(pool, d.ord[d.back[i]])
			i++
		default:
			pool = append(pool, d.ord[d.fwd[j]])
			j++
		}
	}
	k := 0
	for _, v := range d.back {
		d.ordLog = append(d.ordLog, ordChange{node: v, old: d.ord[v]})
		d.ord[v] = pool[k]
		k++
	}
	for _, v := range d.fwd {
		d.ordLog = append(d.ordLog, ordChange{node: v, old: d.ord[v]})
		d.ord[v] = pool[k]
		k++
	}
	d.stack = pool[:0]
	return true
}

// sortByOrd insertion-sorts nodes ascending by ord index.
func sortByOrd(nodes []int, ord []int) {
	for i := 1; i < len(nodes); i++ {
		v := nodes[i]
		j := i - 1
		for j >= 0 && ord[nodes[j]] > ord[v] {
			nodes[j+1] = nodes[j]
			j--
		}
		nodes[j+1] = v
	}
}
