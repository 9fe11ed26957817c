// Package dataset provides deterministic synthetic stand-ins for the six
// real-world graphs of the paper's Table I, loaded by name through
// graphpi.LoadDataset, the CLI's -dataset flag and cmd/graphgen. The SNAP
// datasets themselves are not redistributable (and this module builds
// offline), so each dataset is replaced by a generator matched in degree
// regime — preferential attachment for the social graphs, a mildly
// clustered sparse graph for Patents, and a heavily skewed RMAT graph for
// Twitter — at sizes scaled down to run on one machine (see DESIGN.md §3).
//
// The substitution preserves what the algorithms are sensitive to: |V|, |E|,
// triangle density and degree skew. Absolute runtimes are not comparable to
// the paper's Tianhe-2A numbers, and are not meant to be.
package dataset

import (
	"fmt"
	"sort"
	"sync"

	"graphpi/internal/graph"
)

// Spec describes one dataset: the synthetic generator standing in for one
// of the paper's graphs.
type Spec struct {
	// Name is the dataset name with an "-S" suffix marking the synthetic
	// stand-in (e.g. "WikiVote-S").
	Name string
	// Build generates the stand-in at the given scale factor (1.0 = the
	// default reproduction size; benches may use smaller).
	Build func(scale float64) *graph.Graph
}

// scaled multiplies n by scale with a floor of lo.
func scaled(n int, scale float64, lo int) int {
	v := int(float64(n) * scale)
	if v < lo {
		v = lo
	}
	return v
}

// Specs returns the six dataset specs in the paper's Table I order.
func Specs() []Spec {
	return []Spec{
		// Wiki Editor Voting (Table I: 7.1K vertices, 100.8K edges), full size.
		{
			Name: "WikiVote-S",
			Build: func(scale float64) *graph.Graph {
				g := graph.BarabasiAlbert(scaled(7100, scale, 200), 14, 0xA11CE)
				g.SetName("WikiVote-S")
				return g
			},
		},
		// Co-authorship (96.6K vertices, 1.1M edges), ≈1/4 scale, same avg degree.
		{
			Name: "MiCo-S",
			Build: func(scale float64) *graph.Graph {
				g := graph.BarabasiAlbert(scaled(24000, scale, 300), 11, 0xB0B)
				g.SetName("MiCo-S")
				return g
			},
		},
		// US Patents (3.8M vertices, 16.5M edges), ≈1/40 scale, avg degree ≈ 8.
		{
			Name: "Patents-S",
			Build: func(scale float64) *graph.Graph {
				g := graph.BarabasiAlbert(scaled(90000, scale, 400), 4, 0xCAFE)
				g.SetName("Patents-S")
				return g
			},
		},
		// LiveJournal (4M vertices, 34.7M edges), ≈1/33 scale, avg degree ≈ 17.
		{
			Name: "LiveJournal-S",
			Build: func(scale float64) *graph.Graph {
				g := graph.BarabasiAlbert(scaled(110000, scale, 400), 9, 0x11F7)
				g.SetName("LiveJournal-S")
				return g
			},
		},
		// Orkut (3.1M vertices, 117.2M edges), ≈1/45 scale, avg degree ≈ 36.
		{
			Name: "Orkut-S",
			Build: func(scale float64) *graph.Graph {
				g := graph.BarabasiAlbert(scaled(70000, scale, 400), 18, 0x0B5C)
				g.SetName("Orkut-S")
				return g
			},
		},
		// Twitter (41.7M vertices, 1.2B edges), ≈1/450 scale, RMAT heavy skew.
		{
			Name: "Twitter-S",
			Build: func(scale float64) *graph.Graph {
				sc := 18
				if scale < 0.9 {
					sc = 16
				}
				g := graph.RMAT(sc, scaled(2_600_000, scale, 5000), 0.57, 0.19, 0.19, 0x7117)
				g.SetName("Twitter-S")
				return g
			},
		},
	}
}

// ByName returns the spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*graph.Graph{}
)

// Load builds (or returns the cached) stand-in graph for the named dataset
// at the given scale. Graphs are cached per (name, scale) for the process
// lifetime; generation is deterministic, so cached and fresh copies are
// identical.
func Load(name string, scale float64) (*graph.Graph, error) {
	spec, err := ByName(name)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s@%g", name, scale)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := cache[key]; ok {
		return g, nil
	}
	g := spec.Build(scale)
	cache[key] = g
	return g, nil
}

// SortedNames returns all dataset names sorted alphabetically (for CLI
// help output).
func SortedNames() []string {
	specs := Specs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}
