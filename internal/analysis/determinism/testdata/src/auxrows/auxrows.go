// Fixture for determinism over a per-root scratch build path: a structure
// that materializes pruned adjacency rows lazily, shaped like GraphMini's
// auxiliary graphs. Its annotated entry points (BeginRoot, Row) reach the
// row builder transitively, so any map-order dependence in the build —
// the classic way scratch structures leak nondeterminism into counts — must
// be flagged two hops from the annotation.
package auxrows

// aux is the flat scratch shape: slices keyed by vertex id, which is the
// deterministic-by-construction shape the analyzer should pass unflagged.
type aux struct {
	idx     []int32
	members []uint32
	arena   []uint32
	used    int
	rowOff  []int32
}

// BeginRoot switches the scratch to a new root subtree.
//
//graphpi:deterministic
func (a *aux) BeginRoot(members []uint32) {
	for _, u := range a.members {
		a.idx[u] = -1
	}
	a.members = members
	a.used = 0
	a.rowOff = a.rowOff[:0]
	for _, u := range members {
		a.idx[u] = -2
	}
}

// Row returns the pruned row of v, materializing it on first touch; build is
// reached from here, one hop inside the deterministic closure.
//
//graphpi:deterministic
func (a *aux) Row(v uint32, full []uint32) ([]uint32, bool) {
	switch i := a.idx[v]; {
	case i >= 0:
		return a.arena[a.rowOff[i]:a.rowOff[i+1]], true
	case i == -2:
		return a.build(v, full)
	default:
		return nil, false
	}
}

// build intersects against the flat membership index: vertex-id keyed
// slices, no maps — the shape that must stay clean.
func (a *aux) build(v uint32, full []uint32) ([]uint32, bool) {
	start := a.used
	for _, w := range full {
		if a.idx[w] != -1 {
			a.arena[a.used] = w
			a.used++
		}
	}
	if len(a.rowOff) == 0 {
		a.rowOff = append(a.rowOff, 0)
	}
	a.idx[v] = int32(len(a.rowOff) - 1)
	a.rowOff = append(a.rowOff, int32(a.used))
	return a.arena[start:a.used], true
}

// mapAux is the regression shape: the same scratch with map-backed
// membership, whose iteration order would reorder the packed rows run to
// run. Everything a count depends on must come off ordered storage.
type mapAux struct {
	members map[uint32]bool
	arena   []uint32
	used    int
}

//graphpi:deterministic
func (a *mapAux) Row(v uint32) []uint32 {
	return a.buildFromMap()
}

// buildFromMap is reached from the annotated Row: packing rows by ranging a
// map bakes the randomized order into the arena.
func (a *mapAux) buildFromMap() []uint32 {
	start := a.used
	for w := range a.members { // want `buildFromMap is on a deterministic count path but ranges over a map`
		a.arena[a.used] = w
		a.used++
	}
	return a.arena[start:a.used]
}

// Rebuild is maintenance off the count path: unannotated and unreached from
// any root, so its map range is fine.
func (a *mapAux) Rebuild() int {
	n := 0
	for range a.members {
		n++
	}
	return n
}
