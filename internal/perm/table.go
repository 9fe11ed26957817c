package perm

import (
	"fmt"
	"math/bits"
)

// MaxTableDegree is the largest n an OrderTable is built for, and so the
// reach of every planning step that reasons about all n! relative orders
// (restriction search and validation, the IEP exactness check). At n = 9 a
// table would hold 72 masks of 362 880 bits.
const MaxTableDegree = 8

// OrderTable lays the n! relative orders of n elements out as bits, coset by
// coset of a permutation group G: an order σ (σ(v) is the rank of element v)
// and σ∘a for a ∈ G share a coset. For every ordered pair (a, b) it holds the
// mask of the orders with σ(a) > σ(b), so the orders a set of such
// constraints keeps are an AND of masks and their number a popcount.
//
// Each coset occupies one lane of width bits: |G| rounded up to a power of
// two up to 64, to whole words above. The padding bits are zero in every
// mask, so a lane is zero exactly when its coset keeps no order.
type OrderTable struct {
	n, cosets int
	width     int // lane bits per coset
	words     int // words per order set
	lo, hi    uint64
	tail      uint64 // set on the lanes past the last coset in the final word
	above     [][]uint64
	all       []uint64 // every order
}

// NewOrderTable builds the table of n ≤ MaxTableDegree elements under the
// group G (which must contain the identity and be closed, as a pattern's
// automorphisms are).
func NewOrderTable(n int, group []Perm) *OrderTable {
	if n < 1 || n > MaxTableDegree {
		panic(fmt.Sprintf("perm: order table of degree %d outside [1,%d]", n, MaxTableDegree))
	}
	f := int(Factorial(n))
	t := &OrderTable{n: n, cosets: f / len(group)}
	if g := len(group); g < 64 {
		t.width = 1 << bits.Len(uint(g-1))
	} else {
		t.width = (g + 63) &^ 63
	}
	t.words = (t.cosets*t.width + 63) / 64
	if t.width <= 64 {
		for l := 0; l < 64; l += t.width {
			t.lo |= 1 << l
		}
		t.hi = t.lo << (t.width - 1)
		if used := t.cosets * t.width % 64; used != 0 {
			t.tail = ^uint64(0) << used
		}
	}
	backing := make([]uint64, (n*n+1)*t.words)
	t.above = make([][]uint64, n*n)
	for i := range t.above {
		t.above[i] = backing[i*t.words : (i+1)*t.words : (i+1)*t.words]
	}
	t.all = backing[n*n*t.words:]

	// Walk the orders lexicographically. The first one not yet seen opens the
	// next coset, whose member σ∘a for the j-th element a of G takes lane
	// bit j; the masks of pairs (v, u) with v > u are complements, filled last.
	seen := make([]uint64, (f+63)/64)
	tau := make(Perm, n)
	next, coset := 0, 0
	ForEach(n, func(sigma Perm) bool {
		i := next
		next++
		if seen[i/64]&(1<<(i%64)) != 0 {
			return true
		}
		for j, a := range group {
			for v := range tau {
				tau[v] = sigma[a[v]]
			}
			r := lexRank(tau)
			seen[r/64] |= 1 << (r % 64)
			bit := coset*t.width + j
			w, shift := bit/64, bit%64
			t.all[w] |= 1 << shift
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					// 1 when tau[u] > tau[v], without a branch to mispredict.
					gt := uint64(int(tau[v])-int(tau[u])) >> 63
					t.above[u*n+v][w] |= gt << shift
				}
			}
		}
		coset++
		return true
	})
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			for i, m := range t.above[u*n+v] {
				t.above[v*n+u][i] = t.all[i] &^ m
			}
		}
	}
	return t
}

// lexRank is p's position in ForEach's lexicographic order: the mixed-radix
// number whose i-th digit counts the later entries smaller than p[i].
func lexRank(p Perm) int {
	rank := 0
	later := uint16(1)<<len(p) - 1
	for i, v := range p {
		later &^= 1 << v
		rank = rank*(len(p)-i) + bits.OnesCount16(later&(1<<v-1))
	}
	return rank
}

// Words is the length of an order set of the table.
func (t *OrderTable) Words() int { return t.words }

// Bytes is the memory the table's masks hold.
func (t *OrderTable) Bytes() int64 { return 8 * int64((t.n*t.n+1)*t.words) }

// Count is the number of orders in set.
func (t *OrderTable) Count(set []uint64) int64 {
	k := 0
	for _, w := range set {
		k += bits.OnesCount64(w)
	}
	return int64(k)
}

// Satisfying returns the orders that respect a "must be greater" relation in
// CountOrders' form: σ(u) > σ(v) whenever above[v] has bit u.
func (t *OrderTable) Satisfying(above []uint16) []uint64 {
	set := append([]uint64(nil), t.all...)
	for v, m := range above {
		for ; m != 0; m &= m - 1 {
			for i, w := range t.above[bits.TrailingZeros16(m)*t.n+v] {
				set[i] &= w
			}
		}
	}
	return set
}

// Restrict stores in dst the orders of src with σ(a) > σ(b) and reports
// whether every coset keeps one of them. dst and src may be the same slice.
func (t *OrderTable) Restrict(dst, src []uint64, a, b int) bool {
	mask := t.above[a*t.n+b]
	dst, src = dst[:t.words], src[:t.words]
	covers := true
	if t.width <= 64 {
		for i, m := range mask {
			x := src[i] & m
			dst[i] = x
			if i == len(mask)-1 {
				x |= t.tail
			}
			// A lane is zero exactly when subtracting its low bit borrows
			// through its high bit; lanes below the first zero one never
			// borrow, so the test is exact for "some lane is zero".
			if (x-t.lo)&^x&t.hi != 0 {
				covers = false
			}
		}
		return covers
	}
	per := t.width / 64
	for i := 0; i < len(mask); i += per {
		var kept uint64
		for k := i; k < i+per; k++ {
			dst[k] = src[k] & mask[k]
			kept |= dst[k]
		}
		if kept == 0 {
			covers = false
		}
	}
	return covers
}

// PerCoset returns how many orders of set each coset keeps, with uniform
// false when the cosets do not all keep the same number.
func (t *OrderTable) PerCoset(set []uint64) (per int, uniform bool) {
	if t.width >= 64 {
		step := t.width / 64
		for c := 0; c < t.cosets; c++ {
			k := 0
			for _, w := range set[c*step : (c+1)*step] {
				k += bits.OnesCount64(w)
			}
			if c == 0 {
				per = k
			} else if k != per {
				return 0, false
			}
		}
		return per, true
	}
	lane := uint64(1)<<t.width - 1
	for c := 0; c < t.cosets; c++ {
		bit := c * t.width
		k := bits.OnesCount64(set[bit/64] >> (bit % 64) & lane)
		if c == 0 {
			per = k
		} else if k != per {
			return 0, false
		}
	}
	return per, true
}
