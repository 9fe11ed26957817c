package pattern_test

import (
	"fmt"
	"testing"

	"graphpi/internal/pattern"
	"graphpi/internal/pattern/patterntest"
	"graphpi/internal/perm"
)

// refCanonicalKey is the CanonicalKey it replaced: every relabeling rendered
// as its adjacency string, the smallest kept.
func refCanonicalKey(p *pattern.Pattern) string {
	best := ""
	order := make([]int, p.N())
	perm.ForEach(p.N(), func(f perm.Perm) bool {
		for i := range order {
			order[i] = int(f[i])
		}
		if enc := p.Relabel(order).AdjacencyString(); best == "" || enc < best {
			best = enc
		}
		return true
	})
	return best
}

// TestCanonicalKeyMatchesReference compares CanonicalKey with the rendering
// walk on the short suite, each pattern also under a relabeling.
func TestCanonicalKeyMatchesReference(t *testing.T) {
	for _, np := range patterntest.Suite(5) {
		order := make([]int, np.Pat.N())
		for i := range order {
			order[i] = (i + 2) % len(order)
		}
		for _, p := range []*pattern.Pattern{np.Pat, np.Pat.Relabel(order)} {
			if got, want := p.CanonicalKey(), refCanonicalKey(p); got != want {
				t.Errorf("%s: CanonicalKey %s, reference %s", np.Name, got, want)
			}
		}
	}
}

// refAllConnected is the census AllConnected replaced: every edge mask in
// order, a canonical key per connected mask, the first mask of each key
// named in discovery order, then an insertion sort by edge count and key.
func refAllConnected(n int) []*pattern.Pattern {
	seen := map[string]*pattern.Pattern{}
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	for mask := 0; mask < 1<<len(pairs); mask++ {
		var edges [][2]int
		for i, pr := range pairs {
			if mask&(1<<i) != 0 {
				edges = append(edges, pr)
			}
		}
		p := pattern.MustNew(n, edges, "")
		if !p.Connected() {
			continue
		}
		if key := refCanonicalKey(p); seen[key] == nil {
			seen[key] = p.WithName(fmt.Sprintf("motif%d-%d", n, len(seen)+1))
		}
	}
	out := make([]*pattern.Pattern, 0, len(seen))
	for _, p := range seen {
		out = append(out, p)
	}
	less := func(a, b *pattern.Pattern) bool {
		if a.NumEdges() != b.NumEdges() {
			return a.NumEdges() < b.NumEdges()
		}
		return refCanonicalKey(a) < refCanonicalKey(b)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestAllConnectedMatchesReference pins the orbit-marking census to the
// canonical-key census it replaced: same representatives, names and order.
// Six vertices are pinned by cmd/bench's golden motif table.
func TestAllConnectedMatchesReference(t *testing.T) {
	for n := 1; n <= 5; n++ {
		got, want := pattern.AllConnected(n), refAllConnected(n)
		if len(got) != len(want) {
			t.Fatalf("AllConnected(%d) = %d patterns, reference %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i].Name() != want[i].Name() || got[i].AdjacencyString() != want[i].AdjacencyString() {
				t.Errorf("AllConnected(%d)[%d] = %s %s, reference %s %s", n, i,
					got[i].Name(), got[i].AdjacencyString(), want[i].Name(), want[i].AdjacencyString())
			}
		}
	}
}

// TestAllConnectedSeven checks the 7-vertex census against OEIS A001349:
// 853 connected graphs, pairwise non-isomorphic.
func TestAllConnectedSeven(t *testing.T) {
	if testing.Short() {
		t.Skip("the 7-vertex census takes seconds")
	}
	got := pattern.AllConnected(7)
	if len(got) != 853 {
		t.Fatalf("AllConnected(7) = %d patterns, want 853", len(got))
	}
	keys := map[string]bool{}
	for _, p := range got {
		if !p.Connected() {
			t.Errorf("%s is disconnected", p)
		}
		k := p.CanonicalKey()
		if keys[k] {
			t.Errorf("%s duplicates an earlier class", p)
		}
		keys[k] = true
	}
}
