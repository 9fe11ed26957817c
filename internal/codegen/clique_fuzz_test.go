package codegen_test

// Fuzz target for the clique kernel: arbitrary small graphs, K3..K6, the slot
// range cut at an arbitrary point, hub bitmaps on or off — always against the
// all-injective-maps count. Run with
//
//	go test -fuzz=FuzzCliqueKernel -fuzztime=30s ./internal/codegen

import (
	"testing"

	"graphpi/internal/baseline"
	"graphpi/internal/codegen"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

func FuzzCliqueKernel(f *testing.F) {
	complete := func(n byte) []byte {
		data := []byte{n - 3}
		for u := byte(0); u < n; u++ {
			for v := byte(0); v < u; v++ {
				data = append(data, u, v)
			}
		}
		return data
	}
	f.Add([]byte{}, uint8(0), uint16(0), false)
	f.Add([]byte{0, 0, 1, 1, 2, 0, 2}, uint8(0), uint16(1), false)            // a triangle
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5}, uint8(0), uint16(3), true) // a star: no clique
	f.Add(complete(7), uint8(1), uint16(20), true)                            // K4 in K7, cut inside a root's slots
	f.Add(complete(11), uint8(3), uint16(9), false)                           // K6 in K11
	f.Add(append(complete(9), 0, 0, 7, 7), uint8(2), uint16(7), true)         // K5 in K9; a loop edge is dropped

	f.Fuzz(func(t *testing.T, data []byte, qb uint8, cut uint16, hubs bool) {
		// data[0] sizes the graph (3..11 vertices: brute force tries every
		// injective map); every later byte pair is an edge.
		n := 3
		if len(data) > 0 {
			n += int(data[0]) % 9
			data = data[1:]
		}
		b := graph.NewBuilder(n, len(data)/2)
		for ; len(data) >= 2; data = data[2:] {
			b.AddEdge(uint32(data[0])%uint32(n), uint32(data[1])%uint32(n)) // loops and repeats are dropped
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if hubs {
			g.BuildHubBitmaps(1<<20, 1)
		}
		q := 3 + int(qb)%4
		want := baseline.BruteForceCount(g, pattern.Clique(q))

		m := g.NumAdjSlots()
		bySlot := codegen.NewClique(g, q, nil)
		bySlot.RunTask(0, int(cut)%(m+1))
		bySlot.RunTask(int(cut)%(m+1), m)
		if got := bySlot.Count(); got != want {
			t.Errorf("K%d, slot ranges cut at %d: counted %d, brute force %d", q, int(cut)%(m+1), got, want)
		}
	})
}
