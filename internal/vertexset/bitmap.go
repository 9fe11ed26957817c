package vertexset

import "slices"

// This file adds the third intersection strategy of the hybrid adjacency
// engine: packed bitsets. On power-law graphs a few hub vertices participate
// in a large fraction of all intersections, and every one of those
// intersections pays O(n+m) (merge) or O(n log m) (gallop) against the hub's
// huge adjacency list. Materializing the hub adjacency once as a bitmap turns
// every later hub∩anything into O(|anything|) single-word probes. The graph
// layer decides which vertices get bitmaps (top-K by degree under a memory
// budget); this file only supplies the kernels.

// Bitmap is a packed bitset over a fixed vertex universe: bit x of word x/64
// is set iff vertex x is a member. A Bitmap is an alternate, read-only
// representation of a sorted vertex set, never a replacement — callers keep
// the sorted list alongside it.
type Bitmap []uint64

// BitmapWords returns the number of uint64 words a bitmap over the given
// universe size needs.
func BitmapWords(universe int) int {
	return (universe + 63) / 64
}

// NewBitmap returns an all-zero bitmap able to hold members in [0, universe).
func NewBitmap(universe int) Bitmap {
	return make(Bitmap, BitmapWords(universe))
}

// Set marks x as a member. x must be within the universe the bitmap was
// created for.
func (bm Bitmap) Set(x uint32) {
	bm[x>>6] |= 1 << (x & 63)
}

// Contains reports whether x is a member. Out-of-universe ids are reported
// as non-members.
func (bm Bitmap) Contains(x uint32) bool {
	w := int(x >> 6)
	return w < len(bm) && bm[w]&(1<<(x&63)) != 0
}

// BitmapFromSet materializes the sorted set as a bitmap over the given
// universe.
func BitmapFromSet(set []uint32, universe int) Bitmap {
	bm := NewBitmap(universe)
	for _, x := range set {
		bm.Set(x)
	}
	return bm
}

// IntersectBitmap writes small ∩ bm into dst (truncated first) and returns
// it. small must be a sorted set; the output then is too, and elements beyond
// the bitmap's universe are not members. The cost is O(|small|) regardless of
// the bitmap's population — this is the kernel that makes hub intersections
// cheap — and branch-free, MarkMembers' form: every element is stored and the
// length advances by its membership bit, so a miss costs what a hit costs.
// dst may alias small.
func IntersectBitmap(dst, small []uint32, bm Bitmap) []uint32 {
	small = inUniverse(small, bm)
	dst = slices.Grow(dst[:0], len(small))[:len(small)]
	n := 0
	for _, x := range small {
		dst[n] = x
		n += int(bm[x>>6] >> (x & 63) & 1)
	}
	return dst[:n]
}

// IntersectSizeBitmap returns |small ∩ bm| without materializing it, in
// IntersectBitmap's branch-free form.
func IntersectSizeBitmap(small []uint32, bm Bitmap) int {
	n := 0
	for _, x := range inUniverse(small, bm) {
		n += int(bm[x>>6] >> (x & 63) & 1)
	}
	return n
}

// inUniverse trims the sorted set small to the ids bm can hold, so the
// branch-free probes index bm without a per-element range check.
func inUniverse(small []uint32, bm Bitmap) []uint32 {
	if limit := uint64(len(bm)) * 64; limit < uint64(NoBound) {
		return Below(small, uint32(limit))
	}
	return small
}

// IntersectMultiHybrid is the bitmap-aware IntersectMulti: it intersects all
// of sets, where bms[i] (when non-nil) is a bitmap representation of sets[i]
// used to accelerate the work. bms may be nil (all-scalar) or must have
// len(bms) == len(sets). At most 64 sets are supported (the IEP layer, the
// only multi-way consumer, caps far below that). The result aliases dst or
// scratch.
//
// Strategy: seed with the smallest list, filter it through every available
// bitmap in one pass (O(|seed|) per bitmap), then fold in the remaining
// lists smallest-first with the adaptive scalar kernel.
func IntersectMultiHybrid(dst, scratch []uint32, sets [][]uint32, bms []Bitmap) []uint32 {
	switch len(sets) {
	case 0:
		return dst[:0]
	case 1:
		return append(dst[:0], sets[0]...)
	}
	minI := 0
	for i, s := range sets {
		if len(s) < len(sets[minI]) {
			minI = i
		}
	}
	cur := dst[:0]
	nScalar := 0
seed:
	for _, x := range sets[minI] {
		for i := range sets {
			if i != minI && bms != nil && bms[i] != nil && !bms[i].Contains(x) {
				continue seed
			}
		}
		cur = append(cur, x)
	}
	for i := range sets {
		if i != minI && (bms == nil || bms[i] == nil) {
			nScalar++
		}
	}
	if nScalar == 0 {
		return cur
	}
	// Fold in the scalar leftovers smallest-first: the running intersection
	// only shrinks, so ordering by size bounds the total work.
	other := scratch
	var folded uint64 // bit i set once sets[i] has been folded in
	for done := 0; done < nScalar; done++ {
		if len(cur) == 0 {
			return cur
		}
		next := -1
		for i, s := range sets {
			if i == minI || (bms != nil && bms[i] != nil) || folded&(1<<uint(i)) != 0 {
				continue
			}
			if next < 0 || len(s) < len(sets[next]) {
				next = i
			}
		}
		other = Intersect(other, cur, sets[next])
		cur, other = other, cur
		folded |= 1 << uint(next)
	}
	return cur
}

// MarkMembers writes the intersection a ∩ b as a bit row over the positions
// of a: bit j of dst is set iff a[j] ∈ b. It is Intersect for a consumer that
// keeps working in a's index space (the clique kernel's per-root matrix),
// with the same dispatch — bBM, the optional bitmap form of b, is probed once
// per element of a when that is the shorter side (branch-free: a miss costs
// what a hit costs), otherwise the lists gallop or merge — and it reports
// which ran. dst must hold at least len(a) bits; its first BitmapWords(len(a))
// words are overwritten. Every element of a must lie inside bBM's universe.
func MarkMembers(dst Bitmap, a, b []uint32, bBM Bitmap) Kernel {
	if bBM != nil && len(a) <= len(b) {
		for w := 0; w<<6 < len(a); w++ {
			chunk := a[w<<6:]
			if len(chunk) > 64 {
				chunk = chunk[:64]
			}
			// Members shift in at the top, so after the chunk's last element
			// the first one sits 64-len(chunk) bits above bit 0.
			var word uint64
			for _, x := range chunk {
				word = word>>1 | bBM[x>>6]>>(x&63)<<63
			}
			dst[w] = word >> (64 - uint(len(chunk)))
		}
		return KernelBitmap
	}
	clear(dst[:BitmapWords(len(a))])
	switch {
	case len(b) >= gallopRatio*len(a):
		lo := 0
		for j, x := range a {
			lo = gallopSearch(b, lo, x)
			if lo == len(b) {
				break
			}
			if b[lo] == x {
				dst[j>>6] |= 1 << (uint(j) & 63)
				lo++
			}
		}
		return KernelGallop
	case len(a) >= gallopRatio*len(b):
		j := 0
		for _, y := range b {
			j = gallopSearch(a, j, y)
			if j == len(a) {
				break
			}
			if a[j] == y {
				dst[j>>6] |= 1 << (uint(j) & 63)
				j++
			}
		}
		return KernelGallop
	}
	// Branch-free merge: which side advances is a coin flip on real rows, so
	// both steps are computed instead of predicted.
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		var le, ge int
		if x <= y {
			le = 1
		}
		if x >= y {
			ge = 1
		}
		dst[i>>6] |= uint64(le&ge) << (uint(i) & 63)
		i += le
		j += ge
	}
	return KernelMerge
}
