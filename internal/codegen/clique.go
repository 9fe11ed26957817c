package codegen

import (
	"math/bits"
	"sync/atomic"

	"graphpi/internal/graph"
	"graphpi/internal/taskpool"
	"graphpi/internal/telemetry"
	"graphpi/internal/vertexset"
)

// cliqueCap is the largest candidate set a Clique holds as a bit matrix:
// cliqueCap rows of cliqueCap bits are 2 MB per worker. A larger set (a
// million-degree root of a graph nobody reordered) is narrowed by one
// sorted-list level at a time until it fits. cliqueWords is one such row.
const (
	cliqueCap   = 4096
	cliqueWords = cliqueCap / 64
)

// Clique is one worker's state of the clique kernel — the engine's
// "generated" tier. It counts the q-cliques of a graph, each once, as the
// vertex chains v0 > v1 > ... > v_{q-1}; internal/core substitutes it for any
// complete pattern whose restrictions form a total order, under which every
// clique passes exactly one ordering of its vertices, so the fixed descending
// order tallies the same count whichever order the planner chose.
//
// Per root v0 the candidates are C = N(v0) ∩ [0, v0), ascending. The kernel
// builds a |C| × ⌈|C|/64⌉ bit matrix whose row i holds the positions j < i
// with C[j] ∈ N(C[i]) — one intersection per candidate, the work a loop nest
// does at depth 2 — and from there on a candidate set is a few words:
// binding position i turns the set P into P & row[i], an empty result ends
// the prefix, and the last level is a popcount. Row i lies below position i,
// so every set below a bound vertex holds smaller vertices only and each
// clique is met exactly once, in descending order.
//
// Like the interpreter's per-worker state, a Clique keeps the fields and the
// small slices it writes per candidate off other allocations' cache lines
// (taskpool.LinePad, taskpool.Owned).
type Clique struct {
	_     taskpool.LinePad
	g     *graph.Graph
	q     int
	stop  *atomic.Bool
	st    *telemetry.RunStats
	count int64

	cap   int        // cliqueCap; tests lower it to reach the list descent
	words int        // row stride of the matrix in rows
	rows  []uint64   // the current candidate set's bit matrix
	sets  []uint64   // one candidate row per level of the recursion
	lists [][]uint32 // per level: the list an over-cap set was narrowed to
	_     taskpool.LinePad
}

// NewClique allocates one worker's kernel for K_q, q >= 3, on g. stop may be
// nil; when set, a true value makes the runs below return with a partial
// tally at the next root or depth-1 vertex.
func NewClique(g *graph.Graph, q int, stop *atomic.Bool) *Clique {
	return &Clique{
		g:     g,
		q:     q,
		stop:  stop,
		cap:   cliqueCap,
		sets:  taskpool.Owned[uint64](q*cliqueWords, q*cliqueWords),
		lists: taskpool.Owned[[]uint32](q, q),
	}
}

// Count returns the number of cliques counted so far.
func (c *Clique) Count() int64 { return c.count }

// SetStats enables per-level telemetry for this worker; Stats returns the
// shard for merging. Level d+1 records one scan per candidate set a level-d
// vertex leaves (so the last level's candidates sum to the count), level d
// the intersection that produced it: row builds under the family
// vertexset.MarkMembers dispatched to, word ANDs under the bitmap family, and
// a cut when the set came back empty with more than one vertex still to bind.
// Counts are bit-identical either way.
func (c *Clique) SetStats(st *telemetry.RunStats) { c.st = st }
func (c *Clique) Stats() *telemetry.RunStats      { return c.st }

func (c *Clique) stopped() bool { return c.stop != nil && c.stop.Load() }

// RunTask counts the cliques whose two largest vertices form one of the CSR
// adjacency slots [start, end): the kernel's root tasks are slot ranges. A
// slot selects a position of its owner's candidate set, so a root's
// adjacency may be split over tasks anywhere.
//
//graphpi:deterministic
func (c *Clique) RunTask(start, end int) {
	if start >= end {
		return
	}
	l0, l1 := c.st.Level(0), c.st.Level(1)
	for v0 := c.g.SlotOwner(start); start < end; v0++ {
		if c.stopped() {
			return
		}
		first, last := c.g.AdjSlotRange(v0)
		if last <= start {
			continue
		}
		last = min(last, end)
		cand := vertexset.Below(c.g.Neighbors(v0), v0)
		lo, hi := start-first, min(last-first, len(cand))
		hi = max(lo, hi)
		if l0 != nil {
			l0.Scan(1, 0)
			l1.Scan(hi-lo, last-start-(hi-lo))
		}
		if lo < hi {
			c.count += c.countIn(cand, lo, hi, c.q-1, 1)
		}
		start = last
	}
}

// countIn counts the r-cliques (r >= 2) of the subgraph induced by cand whose
// largest vertex is cand[i] for some i in [lo, hi). Every vertex of cand is
// adjacent to the depth vertices already bound; cand[i] is bound at that
// depth. Nothing at or above position hi can belong to such a clique, so
// only cand[:hi] is looked at — a root split over tasks is not built in full
// by each of them.
func (c *Clique) countIn(cand []uint32, lo, hi, r, depth int) int64 {
	if hi > c.cap {
		return c.descend(cand, lo, hi, r, depth)
	}
	c.buildRows(cand[:hi], depth)
	lst, next := c.st.Level(depth), c.st.Level(depth+1)
	var count int64
	for i := lo; i < hi; i++ {
		if depth == 1 && c.stopped() {
			break
		}
		row := c.rows[i*c.words:][:i>>6+1]
		n := popcount(row)
		if lst != nil {
			if n == 0 && r > 2 {
				lst.Cuts++
			}
			next.Scan(n, 0)
		}
		if r == 2 {
			count += int64(n)
		} else if n > 0 {
			count += c.extend(row, r-1, depth+1)
		}
	}
	return count
}

// buildRows fills the matrix for cand: row i marks the positions j < i with
// cand[j] adjacent to cand[i].
func (c *Clique) buildRows(cand []uint32, depth int) {
	c.words = vertexset.BitmapWords(len(cand))
	if need := len(cand) * c.words; need > len(c.rows) {
		c.rows = make([]uint64, min(max(need, 2*len(c.rows)), c.cap*vertexset.BitmapWords(c.cap)))
	}
	lst := c.st.Level(depth)
	for i, v := range cand {
		row := c.rows[i*c.words:]
		row[i>>6] = 0 // MarkMembers stops short of it when i is a multiple of 64
		kern := vertexset.MarkMembers(row, cand[:i], c.g.Neighbors(v), c.g.HubBitmap(v))
		if lst != nil {
			lst.Intersect(int(kern))
		}
	}
}

// extend counts the r-cliques (r >= 2) inside the position set p of the
// current matrix, binding their largest vertex at the given depth.
func (c *Clique) extend(p []uint64, r, depth int) int64 {
	lst, next := c.st.Level(depth), c.st.Level(depth+1)
	rows, words := c.rows, c.words
	var count int64
	if r == 2 {
		// The last two levels: every AND is popcounted, never stored.
		largest := 0
		for w, word := range p {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				n := 0
				for k, x := range rows[i*words:][:w+1] {
					n += bits.OnesCount64(x & p[k])
				}
				count += int64(n)
				largest = max(largest, n)
			}
		}
		if lst != nil {
			ands := uint64(popcount(p))
			lst.Intersections += ands
			lst.Kernels[telemetry.KernelBitmap] += ands
			next.Scans += ands
			next.Candidates += uint64(count)
			next.CandMax = max(next.CandMax, uint64(largest))
		}
		return count
	}
	sub := c.sets[depth*cliqueWords:]
	for w, word := range p {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			var any uint64
			for k, x := range rows[i*words:][:w+1] {
				x &= p[k]
				sub[k] = x
				any |= x
			}
			if lst != nil {
				lst.Intersect(telemetry.KernelBitmap)
				if any == 0 {
					lst.Cuts++
				}
				next.Scan(popcount(sub[:w+1]), 0)
			}
			if any != 0 {
				count += c.extend(sub[:w+1], r-1, depth+1)
			}
		}
	}
	return count
}

// descend is countIn for a set too large for the matrix: it binds cand[i] on
// sorted lists — one window-bounded intersection, as the loop nest would —
// and hands the smaller set back to countIn.
func (c *Clique) descend(cand []uint32, lo, hi, r, depth int) int64 {
	lst, next := c.st.Level(depth), c.st.Level(depth+1)
	var count int64
	for i := lo; i < hi; i++ {
		if depth == 1 && c.stopped() {
			break
		}
		v := cand[i]
		sub, kern := vertexset.IntersectWindow(c.lists[depth], cand[:i], c.g.Neighbors(v), nil, c.g.HubBitmap(v), 0, v)
		c.lists[depth] = sub
		if lst != nil {
			lst.Intersect(int(kern))
			if len(sub) == 0 && r > 2 {
				lst.Cuts++
			}
			next.Scan(len(sub), 0)
		}
		if r == 2 {
			count += int64(len(sub))
		} else if len(sub) > 0 {
			count += c.countIn(sub, 0, len(sub), r-1, depth+1)
		}
	}
	return count
}

func popcount(p []uint64) int {
	n := 0
	for _, x := range p {
		n += bits.OnesCount64(x)
	}
	return n
}
