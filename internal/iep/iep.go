// Package iep implements GraphPi's counting optimization based on the
// Inclusion-Exclusion Principle (paper §IV-D, Algorithm 2).
//
// When a configuration's innermost k loops carry no intersection work (their
// pattern vertices are pairwise non-adjacent — guaranteed by Phase 2 of the
// schedule generator), counting does not need to enumerate those loops. With
// S_1 … S_k the candidate sets of the k vertices, the number of k-tuples
// (e_1, …, e_k), e_i ∈ S_i, with all entries distinct is
//
//	|S_IEP| = Σ_π μ(π) · Π_{B ∈ π} |∩_{i∈B} S_i|
//
// summed over the set partitions π of {1..k} with Möbius coefficient
// μ(π) = Π_B (−1)^{|B|−1}(|B|−1)!. This closed form is algebraically equal
// to the paper's Algorithm 2 (inclusion–exclusion over subsets of the
// equality pairs A_{i,j}, grouping each subset by the connected components
// of its pair graph); the partition form simply merges the subsets that
// share a component structure. Both forms are implemented here and
// cross-checked in tests; the engine uses the partition form.
package iep

import (
	"math/bits"

	"graphpi/internal/taskpool"
	"graphpi/internal/vertexset"
)

// MaxK bounds the supported number of innermost IEP loops. Bell(8) = 4140
// partition terms is still trivial; pattern sizes cap k well below this.
const MaxK = 8

// Term is one partition of {0..k-1}: Blocks holds one bitmask per block and
// Coef its Möbius coefficient.
type Term struct {
	Blocks []uint16
	Coef   int64
}

// Terms enumerates all set partitions of {0..k-1} with their coefficients,
// in a deterministic order.
func Terms(k int) []Term {
	if k < 1 || k > MaxK {
		panic("iep: k out of range")
	}
	var out []Term
	var blocks []uint16
	var rec func(next int)
	rec = func(next int) {
		if next == k {
			t := Term{Blocks: append([]uint16(nil), blocks...), Coef: 1}
			for _, b := range t.Blocks {
				c := bits.OnesCount16(b)
				t.Coef *= signedFactorial(c)
			}
			out = append(out, t)
			return
		}
		// Element `next` joins an existing block or starts a new one.
		for i := range blocks {
			blocks[i] |= 1 << next
			rec(next + 1)
			blocks[i] &^= 1 << next
		}
		blocks = append(blocks, 1<<next)
		rec(next + 1)
		blocks = blocks[:len(blocks)-1]
	}
	rec(0)
	return out
}

// signedFactorial returns (−1)^(c−1) · (c−1)! — the Möbius coefficient of a
// block of size c in the partition lattice.
func signedFactorial(c int) int64 {
	f := int64(1)
	for i := 2; i < c; i++ {
		f *= int64(i)
	}
	if c%2 == 0 {
		f = -f
	}
	return f
}

// Calculator computes |S_IEP| for fixed k with reusable buffers; one
// Calculator per worker, not safe for concurrent use. Its tables and
// intersection storage are written on every evaluation, so they keep off
// other allocations' cache lines (taskpool.LinePad, taskpool.Owned).
type Calculator struct {
	_     taskpool.LinePad
	k     int
	terms []Term
	// cards[mask] is |∩_{i∈mask} S_i| minus the excluded vertices in it,
	// rebuilt by every CountIn call.
	cards [1 << MaxK]int64
	// inter[mask] holds ∩_{i∈mask} S_i for the masks a later mask extends
	// (singletons alias the input sets; reused storage otherwise).
	inter [1 << MaxK][]uint32
	// exIn is the Count wrappers' membership scratch.
	exIn []uint16
	_    taskpool.LinePad
}

// NewCalculator builds a Calculator for k innermost loops.
func NewCalculator(k int) *Calculator {
	return &Calculator{k: k, terms: Terms(k)}
}

// K returns the calculator's k.
func (c *Calculator) K() int { return c.k }

// Count returns the number of distinct-entry tuples (e_1,…,e_k) with
// e_i ∈ sets[i] \ excluded. sets[i] must be ascending; excluded is the list
// of already-bound data vertices (not necessarily sorted, typically tiny;
// duplicates are counted once).
//
//graphpi:deterministic
func (c *Calculator) Count(sets [][]uint32, excluded []uint32) int64 {
	return c.CountHybrid(sets, nil, excluded)
}

// CountHybrid is Count with optional hub bitmaps: bms[i], when non-nil, is a
// bitmap representation of sets[i] (a hub adjacency precomputed by the graph
// layer), letting the internal intersections run the O(|small|) bitmap kernel
// instead of the scalar merge. bms may be nil or must have len(bms) == k.
// The result is identical to Count. It probes every distinct excluded vertex
// in every set and hands the memberships to CountIn; the engine, which knows
// most of them from the lowering, calls CountIn directly.
//
//graphpi:deterministic
func (c *Calculator) CountHybrid(sets [][]uint32, bms []vertexset.Bitmap, excluded []uint32) int64 {
	c.exIn = c.exIn[:0]
outer:
	for i, x := range excluded {
		for _, prev := range excluded[:i] {
			if prev == x {
				continue outer
			}
		}
		var in uint16
		for j, s := range sets {
			if vertexset.Contains(s, x) {
				in |= 1 << j
			}
		}
		if in != 0 {
			c.exIn = append(c.exIn, in)
		}
	}
	return c.CountIn(sets, bms, c.exIn)
}

// CountIn is the calculator's one evaluation. exIn holds one mask per
// distinct excluded vertex: bit i is set iff the vertex lies in sets[i], so
// the vertex lies in a block's intersection iff its mask covers the block's.
// sets and bms are as for CountHybrid.
//
// Every block cardinality is computed once, eagerly, in increasing mask
// order: a mask's intersection extends that of the mask without its highest
// bit, which precedes it. A mask holding the last set is extended by no other
// mask, so it is only counted (a size kernel), never materialized — for k = 2
// nothing is. The partition terms then read the table.
//
//graphpi:deterministic
func (c *Calculator) CountIn(sets [][]uint32, bms []vertexset.Bitmap, exIn []uint16) int64 {
	k := c.k
	if len(sets) != k {
		panic("iep: set count mismatch")
	}
	// An empty candidate set annihilates every term.
	for i, s := range sets {
		if len(s) == 0 {
			return 0
		}
		c.inter[1<<i] = s
	}
	last := uint16(1) << (k - 1)
	for mask := uint16(1); mask < 1<<k; mask++ {
		hi := 15 - bits.LeadingZeros16(mask)
		rest := mask &^ (1 << hi)
		var n int
		switch {
		case rest == 0:
			n = len(sets[hi])
		case bms != nil && bms[hi] != nil && len(c.inter[rest]) <= len(sets[hi]):
			// Hub fast path: the running intersection is the smaller side,
			// so it probes the peeled set's bitmap in O(|left|).
			if mask&last != 0 {
				n = vertexset.IntersectSizeBitmap(c.inter[rest], bms[hi])
			} else {
				c.inter[mask] = vertexset.IntersectBitmap(c.room(mask, rest), c.inter[rest], bms[hi])
				n = len(c.inter[mask])
			}
		case mask&last != 0:
			n = vertexset.IntersectSize(c.inter[rest], sets[hi])
		default:
			c.inter[mask] = vertexset.Intersect(c.room(mask, rest), c.inter[rest], sets[hi])
			n = len(c.inter[mask])
		}
		for _, in := range exIn {
			if in&mask == mask {
				n--
			}
		}
		c.cards[mask] = int64(n)
	}
	var total int64
	for _, t := range c.terms {
		prod := t.Coef
		for _, b := range t.Blocks {
			card := c.cards[b]
			if card == 0 {
				prod = 0
				break
			}
			prod *= card
		}
		total += prod
	}
	return total
}

// room returns mask's intersection storage with capacity for every element
// of rest's intersection, which bounds both kernels' output (and the bitmap
// kernel's stores), so neither kernel reallocates it unpadded.
func (c *Calculator) room(mask, rest uint16) []uint32 {
	if need := len(c.inter[rest]); cap(c.inter[mask]) < need {
		c.inter[mask] = taskpool.Owned[uint32](0, 2*need)
	}
	return c.inter[mask]
}

// excludedHits counts how many distinct excluded vertices appear in the
// sorted set (duplicates in excluded are tolerated and counted once).
func excludedHits(set []uint32, excluded []uint32) int64 {
	var n int64
outer:
	for i, x := range excluded {
		for _, prev := range excluded[:i] {
			if prev == x {
				continue outer
			}
		}
		if vertexset.Contains(set, x) {
			n++
		}
	}
	return n
}

// CountPairSubsets is the paper-literal Algorithm 2 path: inclusion–
// exclusion over all subsets of the C(k,2) equality pairs A_{i,j}, computing
// each subset's cardinality as the product over the connected components of
// its pair graph of the component intersection cardinality. Exponentially
// more terms than Count (2^C(k,2)); retained as the executable
// specification for cross-checking.
func CountPairSubsets(sets [][]uint32, excluded []uint32) int64 {
	return CountPairSubsetsHybrid(sets, nil, excluded)
}

// CountPairSubsetsHybrid is CountPairSubsets with optional hub bitmaps,
// computing each component cardinality with the bitmap-aware multi-way
// intersection kernel. It is the executable specification cross-checking
// Calculator.CountHybrid.
func CountPairSubsetsHybrid(sets [][]uint32, bms []vertexset.Bitmap, excluded []uint32) int64 {
	k := len(sets)
	if k == 0 {
		return 0
	}
	type pair struct{ i, j int }
	var pairs []pair
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	cardOf := func(mask uint16) int64 {
		var members [][]uint32
		var memberBMs []vertexset.Bitmap
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				members = append(members, sets[i])
				if bms != nil {
					memberBMs = append(memberBMs, bms[i])
				}
			}
		}
		set := vertexset.IntersectMultiHybrid(nil, nil, members, memberBMs)
		return int64(len(set)) - excludedHits(set, excluded)
	}
	var total int64
	for sub := 0; sub < 1<<len(pairs); sub++ {
		// Union-find over the pair graph of this subset.
		parent := make([]int, k)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		popcount := 0
		for pi, p := range pairs {
			if sub&(1<<pi) != 0 {
				popcount++
				parent[find(p.i)] = find(p.j)
			}
		}
		// Product over components.
		prod := int64(1)
		for root := 0; root < k && prod != 0; root++ {
			if find(root) != root {
				continue
			}
			var mask uint16
			for i := 0; i < k; i++ {
				if find(i) == root {
					mask |= 1 << i
				}
			}
			prod *= cardOf(mask)
		}
		if popcount%2 == 1 {
			prod = -prod
		}
		total += prod
	}
	return total
}
