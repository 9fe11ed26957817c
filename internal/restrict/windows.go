package restrict

// This file bakes a restriction set into per-depth candidate windows, the
// form both execution tiers consume. A restriction id(u) > id(v) attaches to
// whichever of the two schedule positions binds later: seen from that loop,
// the earlier bound vertex is a lower or upper limit on every candidate. The
// engine (and the compiled kernels) then narrow each sorted candidate set
// with two binary searches instead of re-checking restrictions per
// candidate — the paper's break/continue pruning, hoisted out of the loop
// body.

// Windows holds the baked restriction bounds of one schedule.
type Windows struct {
	// Lowers[d] lists positions p with restriction id(v_d) > id(v_p):
	// candidates at depth d must exceed bound[p].
	Lowers [][]uint8
	// Uppers[d] lists positions p with restriction id(v_p) > id(v_d):
	// candidates at depth d must stay below bound[p].
	Uppers [][]uint8
}

// BakeWindows maps a restriction set (expressed on original pattern
// vertices) through pos — the original-vertex → schedule-position map — and
// attaches each restriction to its later position's loop. Restrictions are
// assumed in range (validated by the caller alongside the schedule).
func BakeWindows(s Set, pos []uint8) Windows {
	n := len(pos)
	w := Windows{
		Lowers: make([][]uint8, n),
		Uppers: make([][]uint8, n),
	}
	for _, r := range s {
		pf, ps := pos[r.First], pos[r.Second]
		if pf > ps {
			// id(v_pf) > id(v_ps), checked when binding pf (the later).
			w.Lowers[pf] = append(w.Lowers[pf], ps)
		} else {
			// id(v_pf) > id(v_ps) with ps later: bound[pf] is an upper
			// limit for the candidates of ps.
			w.Uppers[ps] = append(w.Uppers[ps], pf)
		}
	}
	return w
}

// TotalOrder reports whether the windows' transitive closure orders every
// pair of positions exactly one way — the condition under which a symmetric
// pattern (a clique) is counted exactly once per embedding class and a
// direction-free clique kernel is interchangeable with the restricted loop
// nest. Inconsistent sets (a cycle in the closure) report false.
func (w Windows) TotalOrder() bool {
	n := len(w.Lowers)
	if n > 32 {
		return false // no pattern is that wide; avoid the O(n³) walk
	}
	// gt[d] is the bitmask of positions known smaller than d.
	gt := make([]uint32, n)
	for d := 0; d < n; d++ {
		for _, p := range w.Lowers[d] {
			gt[d] |= 1 << p
		}
		for _, p := range w.Uppers[d] {
			gt[p] |= 1 << uint(d)
		}
	}
	for { // transitive closure to a fixed point
		changed := false
		for d := 0; d < n; d++ {
			m := gt[d]
			for rest := m; rest != 0; rest &= rest - 1 {
				p := bitIndex(rest)
				m |= gt[p]
			}
			if m != gt[d] {
				gt[d] = m
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			iGtJ := gt[i]&(1<<j) != 0
			jGtI := gt[j]&(1<<i) != 0
			if iGtJ == jGtI { // incomparable, or a cycle
				return false
			}
		}
	}
	return true
}

// bitIndex returns the index of the lowest set bit of m (m != 0).
func bitIndex(m uint32) int {
	i := 0
	for m&1 == 0 {
		m >>= 1
		i++
	}
	return i
}
