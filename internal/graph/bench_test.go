package graph

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

func BenchmarkBuildBA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		BarabasiAlbert(20000, 8, uint64(i))
	}
}

func BenchmarkTriangleCount(b *testing.B) {
	for _, g := range []*Graph{BarabasiAlbert(20000, 8, 7), rmat15()} {
		b.Run(g.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.countTriangles() // Triangles would return its cached count
			}
		})
	}
}

func BenchmarkNeighborsAccess(b *testing.B) {
	g := BarabasiAlbert(20000, 8, 7)
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		v := uint32(i % g.NumVertices())
		total += len(g.Neighbors(v))
	}
	_ = total
}

func BenchmarkHasEdge(b *testing.B) {
	g := BarabasiAlbert(20000, 8, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(uint32(i%1000), uint32((i*7)%20000))
	}
}

// rmat15 is RMAT(15, 400k) with the quadrant probabilities of the benchmark
// harness's clique-rmat workload.
func rmat15() *Graph { return RMAT(15, 400_000, 0.57, 0.19, 0.19, 1) }

func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rmat15()
	}
}

func BenchmarkFromEdges(b *testing.B) {
	// Rename the ids by a seeded permutation, as the harness does, so the
	// edges arrive in no useful order.
	g := rmat15()
	perm := rand.New(rand.NewPCG(1, 2)).Perm(g.NumVertices())
	var edges [][2]uint32
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(uint32(v)) {
			if uint32(v) < w {
				edges = append(edges, [2]uint32{uint32(perm[v]), uint32(perm[w])})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromEdges(g.NumVertices(), edges); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReorder(b *testing.B) {
	g := rmat15()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reorder()
	}
}

// BenchmarkReadBinary reads the snapshot of an Optimize()d BA(30k,8), the
// graph of the harness's BA workloads. "hubs" is that snapshot, whose load
// rebuilds 2.1 MB of hub bitmaps the file does not hold; "csr" is the same
// graph without hubs, so its B/op is the reader's own allocation.
func BenchmarkReadBinary(b *testing.B) {
	reordered := BarabasiAlbert(30000, 8, 1).Reorder()
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"csr", reordered}, {"hubs", reordered.Optimize(0)}} {
		var snap bytes.Buffer
		if err := WriteBinary(&snap, c.g); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(snap.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadBinary(bytes.NewReader(snap.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
