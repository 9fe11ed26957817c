package vertexset

// This file adds the per-worker root row: the bitmap form of one
// neighbourhood, built when an intersection first needs it and kept while the
// same neighbourhood stays the left operand. Hub bitmaps (bitmap.go) answer
// "is x in N(h)?" only for the few highest-degree vertices, for every worker
// and forever; a row answers it for whichever vertex a worker has bound near
// the root of its loop nest, for as long as that vertex stays bound. It is
// GraphSet's (v_cnt+31)/32-word set buffer and GraphMini's per-root auxiliary
// graph in their cheapest form: one |V|-bit row, no global state, no budget.

// Row is a reusable bit row over a vertex-id universe that holds one sorted
// set at a time. The zero Row has no storage; NewRow gives it some.
type Row struct {
	bm   Bitmap
	held []uint32 // the set whose members are the row's set bits
}

// NewRow returns an empty row stored in bm, which must be all zero and cover
// the universe of every set the row will hold.
func NewRow(bm Bitmap) Row { return Row{bm: bm} }

// hold makes r the bitmap form of set and returns it. The held set is
// identified by its memory, so set must not change, and no other set may come
// to occupy its memory, while r holds it — the adjacency rows of one CSR graph
// satisfy both. Holding the held set again is free; holding another clears
// the old set's words and sets the new set's bits, O(|old| + |set|).
func (r *Row) hold(set []uint32) Bitmap {
	if len(set) == len(r.held) && (len(set) == 0 || &set[0] == &r.held[0]) {
		return r.bm
	}
	for _, x := range r.held {
		r.bm[x>>6] = 0
	}
	for _, x := range set {
		r.bm[x>>6] |= 1 << (x & 63)
	}
	r.held = set
	return r.bm
}

// IntersectRow is IntersectWindow for an operand a that row may hold: it
// writes a ∩ b ∩ [lo, hi) into dst (truncated first) and reports the kernel
// that ran. Of three kernels it takes the cheapest for the windowed sizes:
//
//   - the shorter window of a probes bBM, b's hub bitmap, when there is one;
//   - the window of a gallops through b's when b's is more than gallopRatio
//     times longer (or either is empty);
//   - otherwise the window of b probes a's bit row: aBM, a's hub bitmap, when
//     there is one, and else row, which is made to hold a first (see
//     Row.hold for what that asks of a).
//
// The probe costs O(|window of b|) whatever a's length, so it replaces the
// merge, and a gallop of b through a, outright. The row is built only when the
// probe runs, so a step that never picks it never pays for it. dst must not
// alias a or b.
func IntersectRow(dst, a, b []uint32, aBM, bBM Bitmap, row *Row, lo, hi uint32) ([]uint32, Kernel) {
	wa, wb := Window(a, lo, hi), Window(b, lo, hi)
	if bBM != nil && len(wa) <= len(wb) {
		return IntersectBitmap(dst, wa, bBM), KernelBitmap
	}
	if len(wb) == 0 || len(wb) > gallopRatio*len(wa) {
		return intersectGallop(dst[:0], wa, wb), KernelGallop
	}
	if aBM == nil {
		aBM = row.hold(a) // all of a: its windows differ from call to call
	}
	return IntersectBitmap(dst, wb, aBM), KernelBitmap
}
