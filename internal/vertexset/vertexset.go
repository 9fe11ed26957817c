// Package vertexset implements the sorted-set kernels at the heart of the
// GraphPi execution engine.
//
// A vertex set is an ascending []uint32 with no duplicates — exactly the
// representation a CSR adjacency list provides (GraphPi, §IV-E: "the
// neighborhood of a vertex is sorted and continuous in memory. Therefore,
// the intersection operation of two sets can be efficiently implemented with
// the time complexity of O(n+m), and the intersection is naturally sorted").
//
// Two intersection strategies are provided and selected adaptively:
//
//   - a linear merge, optimal when the inputs have comparable sizes, and
//   - a galloping (exponential probe + binary search) scan, optimal when one
//     input is much smaller than the other, as is common on power-law graphs
//     where a hub adjacency meets a leaf adjacency.
//
// All kernels write into caller-provided destination slices so the hot loops
// of the engine never allocate.
package vertexset

// gallopRatio is the size ratio beyond which the galloping strategy beats the
// linear merge. The crossover is architecture dependent; BenchmarkIntersect-
// Crossover (bitmap_bench_test.go) sweeps it — on amd64/uint32 merge wins at
// ratio 8 (269µs vs 411µs for 64Ki∩8Ki) and gallop from ratio 16 on (223µs
// vs 231µs), so 16 is the measured crossover.
const gallopRatio = 16

// IntersectMerge is Intersect with the linear-merge kernel forced,
// regardless of the input size ratio. cmd/bench's per-kernel probe times
// it; the engine's kernels choose between merge and gallop per call.
func IntersectMerge(dst, a, b []uint32) []uint32 {
	dst = dst[:0]
	if len(a) == 0 || len(b) == 0 {
		return dst
	}
	return intersectMerge(dst, a, b)
}

// IntersectGallop is Intersect with the galloping kernel forced: the smaller
// input probes the larger by exponential + binary search. cmd/bench's
// per-kernel probe times it; the engine's kernels choose between merge and
// gallop per call.
func IntersectGallop(dst, a, b []uint32) []uint32 {
	dst = dst[:0]
	if len(a) == 0 || len(b) == 0 {
		return dst
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	return intersectGallop(dst, a, b)
}

// Intersect writes the intersection of the sorted sets a and b into dst
// (which is truncated first) and returns the extended slice. dst must not
// alias a or b. The inputs must be ascending and duplicate-free; the output
// then is too.
func Intersect(dst, a, b []uint32) []uint32 {
	dst = dst[:0]
	if len(a) == 0 || len(b) == 0 {
		return dst
	}
	// Keep a as the smaller set.
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= gallopRatio*len(a) {
		return intersectGallop(dst, a, b)
	}
	return intersectMerge(dst, a, b)
}

// Kernel names the strategy a hybrid intersection dispatched to. The values
// match internal/telemetry's kernel-family indices so executors attribute a
// call without re-deriving the dispatch rule.
type Kernel uint8

const (
	// KernelMerge is the linear two-pointer merge.
	KernelMerge Kernel = iota
	// KernelGallop is the exponential probe of the larger input.
	KernelGallop
	// KernelBitmap is the O(|small|) probe of a hub bitmap.
	KernelBitmap
)

// NoBound is the open upper limit of a window no restriction caps.
const NoBound = ^uint32(0)

// Window returns the elements of the sorted set a inside the half-open id
// interval [lo, hi), by binary search. (0, NoBound) is the unbounded window.
func Window(a []uint32, lo, hi uint32) []uint32 {
	a = Below(a, hi)
	if lo > 0 {
		a = Above(a, lo-1)
	}
	return a
}

// IntersectWindow is the engine's bounded intersection: it writes
// a ∩ b ∩ [lo, hi) into dst (truncated first) and reports the kernel that
// ran. Both operands are sliced to the window before any element is read —
// GraphPi's restrictions turn everything outside it into dead work, so the
// cost follows the window, not the rows. aBM / bBM are the optional bitmap
// forms of the full a / b (hub rows): when one exists and the other side's
// trimmed list is the shorter one, that list probes the bitmap in O(|list|);
// otherwise the adaptive merge/gallop runs on the two trimmed lists.
func IntersectWindow(dst, a, b []uint32, aBM, bBM Bitmap, lo, hi uint32) ([]uint32, Kernel) {
	a, b = Window(a, lo, hi), Window(b, lo, hi)
	if bBM != nil && len(a) <= len(b) {
		return IntersectBitmap(dst, a, bBM), KernelBitmap
	}
	if aBM != nil && len(b) < len(a) {
		return IntersectBitmap(dst, b, aBM), KernelBitmap
	}
	dst = dst[:0]
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= gallopRatio*len(a) {
		return intersectGallop(dst, a, b), KernelGallop // also the empty case
	}
	return intersectMerge(dst, a, b), KernelMerge
}

// IntersectSize returns |a ∩ b| without materializing the intersection.
func IntersectSize(a, b []uint32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	if len(b) >= gallopRatio*len(a) {
		return intersectGallopSize(a, b)
	}
	return intersectMergeSize(a, b)
}

// intersectMerge is the textbook two-pointer merge intersection, O(n+m).
func intersectMerge(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			dst = append(dst, x)
			i++
			j++
		}
	}
	return dst
}

func intersectMergeSize(a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// intersectGallop probes b for each element of the (much smaller) a,
// advancing a moving frontier so the total work is O(|a| log(|b|/|a|)).
func intersectGallop(dst, a, b []uint32) []uint32 {
	lo := 0
	for _, x := range a {
		lo = gallopSearch(b, lo, x)
		if lo == len(b) {
			break
		}
		if b[lo] == x {
			dst = append(dst, x)
			lo++
		}
	}
	return dst
}

func intersectGallopSize(a, b []uint32) int {
	lo, n := 0, 0
	for _, x := range a {
		lo = gallopSearch(b, lo, x)
		if lo == len(b) {
			break
		}
		if b[lo] == x {
			n++
			lo++
		}
	}
	return n
}

// gallopSearch returns the smallest index i in [lo, len(b)] such that
// b[i] >= x, probing exponentially from lo before binary searching.
func gallopSearch(b []uint32, lo int, x uint32) int {
	if lo >= len(b) || b[lo] >= x {
		return lo
	}
	step := 1
	hi := lo + 1
	for hi < len(b) && b[hi] < x {
		lo = hi
		step <<= 1
		hi += step
	}
	if hi > len(b) {
		hi = len(b)
	}
	// Invariant: b[lo] < x, and (hi == len(b) or b[hi] >= x).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Below returns the prefix of the sorted set a whose elements are strictly
// less than bound.
func Below(a []uint32, bound uint32) []uint32 {
	// Fast paths: whole set below, or empty.
	if len(a) == 0 || a[len(a)-1] < bound {
		return a
	}
	if a[0] >= bound {
		return a[:0]
	}
	lo, hi := 0, len(a) // smallest index with a[i] >= bound
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return a[:lo]
}

// Above returns the suffix of the sorted set a whose elements are strictly
// greater than bound. Together with Below it turns GraphPi's restriction
// checks into O(log n) window narrowing on sorted candidate sets.
func Above(a []uint32, bound uint32) []uint32 {
	if len(a) == 0 || a[0] > bound {
		return a
	}
	if a[len(a)-1] <= bound {
		return a[len(a):]
	}
	lo, hi := 0, len(a) // smallest index with a[i] > bound
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return a[lo:]
}

// Contains reports whether the sorted set a contains x.
func Contains(a []uint32, x uint32) bool {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == x
}

// IntersectMulti intersects k ≥ 1 sorted sets, smallest-first, using scratch
// as the ping buffer. It returns the result, which aliases either dst or
// scratch. Used by the IEP cardinality calculation (Algorithm 2) where whole
// connected components of candidate sets are intersected at once.
func IntersectMulti(dst, scratch []uint32, sets ...[]uint32) []uint32 {
	switch len(sets) {
	case 0:
		return dst[:0]
	case 1:
		dst = append(dst[:0], sets[0]...)
		return dst
	}
	// Start from the two smallest sets: the running intersection only
	// shrinks, so seeding it small bounds all later work.
	minI := 0
	for i, s := range sets {
		if len(s) < len(sets[minI]) {
			minI = i
		}
	}
	sets[0], sets[minI] = sets[minI], sets[0]
	cur := Intersect(dst, sets[0], sets[1])
	other := scratch
	for _, s := range sets[2:] {
		if len(cur) == 0 {
			return cur
		}
		other = Intersect(other, cur, s)
		cur, other = other, cur
	}
	return cur
}

// IsSorted reports whether a is strictly ascending (the set invariant).
func IsSorted(a []uint32) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			return false
		}
	}
	return true
}
