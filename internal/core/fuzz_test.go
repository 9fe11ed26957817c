package core

// Fuzz target for the engine: a random graph of at most 40 vertices × a
// random connected pattern of at most 6 vertices, under a schedule and a
// restriction set picked from the planner's candidates, on fuzzArms — the
// lowered nest with every mark, without its loop-invariant memo and without
// its root rows; the planned and the mirror orientation; the executor Bind
// picks and the interpreter forced onto configurations the clique kernel
// takes; IEP or full nest; 1 or 3 workers; vertex or slot tasks; Run,
// Counters over one-vertex or one-slot ranges, and Enumerate — always against
// the brute-force count. Run with
//
//	go test -fuzz=FuzzEngine -fuzztime=30s ./internal/core

import (
	"fmt"
	"testing"

	"graphpi/internal/baseline"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
)

// fuzzMaxEdges bounds a fuzzed graph so the brute-force oracle, which tries
// every injective map, stays fast on dense inputs.
const fuzzMaxEdges = 120

// patternBits encodes the subgraph of p induced by its first n vertices as
// the bits FuzzEngine decodes: the adjacency's upper triangle, row by row.
func patternBits(p *pattern.Pattern, n int) uint16 {
	var bits uint16
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if p.HasEdge(i, j) {
				bits |= 1 << k
			}
			k++
		}
	}
	return bits
}

func FuzzEngine(f *testing.F) {
	// A random graph: 24 vertices, each pair of bytes an edge.
	g := make([]byte, 1, 1+2*fuzzMaxEdges)
	g[0] = 23
	x := uint32(7)
	for i := 0; i < 2*fuzzMaxEdges; i++ {
		x = x*1664525 + 1013904223
		g = append(g, byte(x>>24))
	}
	// The reference p1..p4, p5's first six vertices (it has seven) and
	// Cycle6Tri: the shapes with loop-invariant steps and IEP suffixes.
	for _, spec := range []string{
		"4:0111101011011010",
		"6:011110101101110011110000101000011000",
		"6:011111101111110110111000111000110000",
		"6:011110101011110010100001111000010100",
		"7:0111111101111111011001110110111100011010001100000",
		"cycle6tri",
	} {
		p, err := pattern.Parse(spec)
		if err != nil {
			f.Fatal(err)
		}
		n := min(p.N(), 6)
		f.Add(g, uint8(n-2), patternBits(p, n), uint8(0), uint8(0), uint8(0))
	}
	f.Add([]byte{5, 0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 5, 5, 0}, uint8(1), uint16(0b111), uint8(1), uint8(1), uint8(3))
	// K5 on the same bytes folded onto 12 vertices, and K4 with hubs: the
	// clique kernel's configurations.
	dense := append([]byte{11}, g[1:]...)
	f.Add(dense, uint8(3), uint16(1<<10-1), uint8(0), uint8(0), uint8(1))
	f.Add(g, uint8(2), uint16(1<<6-1), uint8(0), uint8(0), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, nb uint8, adj uint16, schedPick, setPick, flags uint8) {
		// data[0] sizes the graph (1..40 vertices); every later byte pair is
		// an edge, up to fuzzMaxEdges of them. flags bit 0 relabels by
		// degree (Reorder), bit 1 builds hub bitmaps.
		nv := 1
		if len(data) > 0 {
			nv += int(data[0]) % 40
			data = data[1:]
		}
		b := graph.NewBuilder(nv, len(data)/2)
		for e := 0; len(data) >= 2 && e < fuzzMaxEdges; data, e = data[2:], e+1 {
			b.AddEdge(uint32(data[0])%uint32(nv), uint32(data[1])%uint32(nv)) // loops and repeats are dropped
		}
		dg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if flags&1 != 0 {
			dg = dg.Reorder()
		}
		if flags&2 != 0 {
			dg.BuildHubBitmaps(1<<20, 1)
		}

		// nb sizes the pattern (2..6 vertices); adj's bits are its upper
		// triangle, row by row.
		n := 2 + int(nb)%5
		matrix := make([]byte, n*n)
		k := 0
		for i := 0; i < n; i++ {
			matrix[i*n+i] = '0'
			for j := i + 1; j < n; j++ {
				c := byte('0')
				if adj&(1<<k) != 0 {
					c = '1'
				}
				matrix[i*n+j], matrix[j*n+i] = c, c
				k++
			}
		}
		p, err := pattern.ParseAdjacency(n, string(matrix), "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		if !p.Connected() {
			t.Skip("disconnected pattern")
		}
		scheds := schedule.Generate(p, schedule.Options{}).Efficient
		sets, err := restrict.Generate(p, restrict.Options{MaxSets: 4})
		if err != nil {
			t.Fatal(err)
		}
		cfg := mustConfig(t, p, scheds[int(schedPick)%len(scheds)], sets[int(setPick)%len(sets)])
		checkArms(t, fmt.Sprintf("%s (%s)", p, cfg), dg, cfg, baseline.BruteForceCount(dg, p), fuzzArms)
	})
}

// fuzzArms is every arm FuzzEngine runs.
var fuzzArms = table(
	axes{iep: both, strip: []strip{keepMarks, noMemo, noRows}, workers: []int{1, 3}, chunk: []int{0, 1}, stats: on},
	axes{tier: interpreted, iep: both, mirror: both, workers: []int{1, 3}, chunk: []int{0, 1}},
	axes{iep: both, mirror: on, workers: []int{1, 3}, chunk: []int{0, 1}},
	axes{entry: counted, iep: both, workers: []int{1, 3}, chunk: []int{0, 1}},
	axes{entry: enumerated, mirror: both, workers: []int{1, 3}, chunk: []int{0, 1}},
)
