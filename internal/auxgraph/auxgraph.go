// Package auxgraph implements auxiliary-graph pruning (GraphMini-style):
// per-root materialization of pruned adjacency rows reused across sibling
// subtrees in place of full-CSR-row intersections.
//
// When the engine binds the root vertex v0, the candidate universe of every
// deeper pattern vertex adjacent to the root is S = N(v0). Any hoisted
// intersection Out = Left ∩ N(v_d) with Left ⊆ S and v_d ∈ S can substitute
// the pruned row N'(v_d) = N(v_d) ∩ S for the full CSR row without changing
// the result:
//
//	Left ∩ N'(v_d) = Left ∩ N(v_d) ∩ S = (Left ∩ S) ∩ N(v_d) = Left ∩ N(v_d)
//
// Pruned rows are |N(v)∩N(v0)|-sized — the triangle degree toward the root —
// instead of |N(v)|-sized, and one row is reused by every sibling subtree
// under the same root that rebinds the same vertex at a deeper level. Rows
// build lazily: only vertices the restricted search actually touches pay the
// build intersection, and the build reuses the hub bitmap of v0 when the
// degree-ordered hot prefix has one, so a hub root's rows cost O(|N(v)|)
// single-word probes each.
//
// Whether materialization is worth it is decided by the cost model
// (costmodel.EstimateAux) per schedule, not here; this package only provides
// the scratch structure and the unified view-budget allocator that sizes it
// together with the hub bitmaps.
package auxgraph

import (
	"graphpi/internal/graph"
	"graphpi/internal/vertexset"
)

// Row-index sentinels stored in Aux.idx. Values >= 0 index Aux.rows.
const (
	idxNotMember int32 = -1 // vertex outside S for the current root
	idxUnbuilt   int32 = -2 // member of S, row not materialized yet
	idxSkipped   int32 = -3 // member, but the arena budget refused the row
)

// Stats counts what one Aux did over a run; the engine folds it into the
// worker's telemetry shard so drift reports can reconcile pruning activity.
type Stats struct {
	// Roots counts distinct root subtrees an auxiliary graph was built under.
	Roots uint64 `json:"roots"`
	// Rows counts pruned rows materialized (lazy: only touched vertices).
	Rows uint64 `json:"rows"`
	// Bytes sums the bytes of all materialized rows.
	Bytes uint64 `json:"bytes"`
	// Hits counts intersections served from an already-built pruned row —
	// the reuse the build cost is amortized against.
	Hits uint64 `json:"hits"`
	// Skips counts row requests declined (arena budget exhausted, or the
	// vertex fell outside the root's neighborhood); the engine falls back to
	// the full CSR row, so a skip affects speed, never counts.
	Skips uint64 `json:"skips"`
}

// Add folds o into s.
func (s *Stats) Add(o Stats) {
	s.Roots += o.Roots
	s.Rows += o.Rows
	s.Bytes += o.Bytes
	s.Hits += o.Hits
	s.Skips += o.Skips
}

// Aux is one worker's auxiliary-graph scratch: the pruned adjacency rows of
// the current root's neighborhood. Single-goroutine; rebuilt (lazily) each
// time the worker moves to a new root vertex. The structure is deterministic
// by construction — membership marks and rows live in flat slices keyed by
// vertex id, so no map iteration order can reach a count-bearing path.
type Aux struct {
	g *graph.Graph
	// idx maps vertex id → row index or one of the idx* sentinels. Allocated
	// once (4n bytes, charged by PlanBudget) and repaired incrementally: only
	// the previous root's members are reset on a root switch.
	idx []int32
	// members is the current root's neighborhood S (aliases CSR storage).
	members []uint32
	// rootBM is the root's hub bitmap when it has one; row builds probe it
	// instead of merging against members.
	rootBM  vertexset.Bitmap
	root    uint32
	hasRoot bool
	// arena is the flat row storage; rows[i] spans arena[rowOff[i]:rowOff[i+1]].
	// Allocated once at the budgeted capacity and never grown, so row slices
	// handed out stay valid until the next root switch.
	arena  []uint32
	used   int
	rowOff []int32

	stats Stats
}

// New allocates aux scratch for g with the given arena budget in bytes.
// A budget too small for even a single average row disables the scratch:
// Enabled reports false and Row always declines. The vertex index (4 bytes
// per vertex) is part of the structure and must be covered by the caller's
// budget split (see PlanBudget).
func New(g *graph.Graph, arenaBytes int64) *Aux {
	n := g.NumVertices()
	words := int64(arenaBytes / 4)
	if n == 0 || words < minArenaEntries {
		return &Aux{g: g}
	}
	a := &Aux{
		g:     g,
		idx:   make([]int32, n),
		arena: make([]uint32, words),
	}
	for i := range a.idx {
		a.idx[i] = idxNotMember
	}
	return a
}

// minArenaEntries is the smallest arena worth allocating the index for: below
// one CPU page of row storage the fallback full-row intersections win.
const minArenaEntries = 1024

// Enabled reports whether this Aux can materialize rows at all. Nil-safe,
// like every method: a nil *Aux behaves as permanently disabled scratch.
func (a *Aux) Enabled() bool { return a != nil && a.idx != nil }

// Stats returns the counters accumulated so far.
func (a *Aux) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	return a.stats
}

// BeginRoot switches the scratch to a new root subtree: S becomes members
// (the root's full neighborhood; must alias or equal g.Neighbors(root)) and
// rootBM the root's hub bitmap (nil when it has none). Calling it again with
// the same root is a no-op, so edge-parallel slot groups of one root that
// land on the same worker keep their rows. Previous rows are released in
// O(|S_prev|).
//
//graphpi:deterministic
func (a *Aux) BeginRoot(root uint32, members []uint32, rootBM vertexset.Bitmap) {
	if a == nil || a.idx == nil {
		return
	}
	if a.hasRoot && a.root == root {
		return
	}
	a.release()
	a.root, a.hasRoot = root, true
	a.members = members
	a.rootBM = rootBM
	for _, u := range members {
		a.idx[u] = idxUnbuilt
	}
	a.stats.Roots++
}

// release clears the membership marks of the current root and resets the
// arena. O(|S|); called from BeginRoot so a long-lived worker never rescans
// the whole index.
func (a *Aux) release() {
	for _, u := range a.members {
		a.idx[u] = idxNotMember
	}
	a.members = nil
	a.rootBM = nil
	a.used = 0
	a.rowOff = a.rowOff[:0]
	a.hasRoot = false
}

// Row returns the pruned row N(v) ∩ S for a member vertex v, materializing
// it on first touch. ok is false when v is not a member of the current
// root's neighborhood or the arena budget cannot hold the row — the caller
// must then fall back to the full CSR row. The returned slice aliases the
// arena and is valid until the next BeginRoot.
//
//graphpi:deterministic
func (a *Aux) Row(v uint32) ([]uint32, bool) {
	if a == nil || a.idx == nil {
		return nil, false
	}
	switch i := a.idx[v]; {
	case i >= 0:
		a.stats.Hits++
		return a.arena[a.rowOff[i]:a.rowOff[i+1]], true
	case i == idxUnbuilt:
		return a.build(v)
	default:
		a.stats.Skips++
		return nil, false
	}
}

// build materializes the pruned row of v. The worst-case row size is
// min(deg(v), |S|); if the arena cannot hold that, the row is marked skipped
// — a decision depending only on build order and sizes, so runs stay
// deterministic for a fixed task shape (and counts are identical regardless,
// since callers fall back to the full row).
func (a *Aux) build(v uint32) ([]uint32, bool) {
	full := a.g.Neighbors(v)
	maxLen := len(full)
	if len(a.members) < maxLen {
		maxLen = len(a.members)
	}
	if a.used+maxLen > len(a.arena) {
		a.idx[v] = idxSkipped
		a.stats.Skips++
		return nil, false
	}
	dst := a.arena[a.used:a.used]
	var row []uint32
	// The bitmap probe stores every element of full before it keeps the
	// members, so it needs len(full) words of arena, not just maxLen.
	if a.rootBM != nil && a.used+len(full) <= len(a.arena) {
		row = vertexset.IntersectBitmap(dst, full, a.rootBM)
	} else {
		row = vertexset.Intersect(dst, full, a.members)
	}
	if len(a.rowOff) == 0 {
		a.rowOff = append(a.rowOff, 0)
	}
	a.idx[v] = int32(len(a.rowOff) - 1)
	a.used += len(row)
	a.rowOff = append(a.rowOff, int32(a.used))
	a.stats.Rows++
	a.stats.Bytes += uint64(4 * len(row))
	return row, true
}
