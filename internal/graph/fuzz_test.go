package graph

// Fuzz target for the binary snapshot reader: ReadBinary parses
// length-prefixed arrays from untrusted files (and, in the cluster, from
// master-pushed snapshot streams), so arbitrary input must produce either a
// valid graph or an error — never a panic, never a count-sized allocation,
// and never a structurally invalid graph. Run continuously with
//
//	go test -fuzz=FuzzReadBinary -fuzztime=30s ./internal/graph

import (
	"bytes"
	"testing"
)

// snapshotBytes serializes g for the seed corpus.
func snapshotBytes(f *testing.F, g *Graph) []byte {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

func FuzzReadBinary(f *testing.F) {
	f.Add(snapshotBytes(f, &Graph{}))
	tri, err := FromEdges(3, [][2]uint32{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snapshotBytes(f, tri))
	star, err := FromEdges(6, [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
	if err != nil {
		f.Fatal(err)
	}
	star.SetName("star")
	f.Add(snapshotBytes(f, star))
	f.Add(snapshotBytes(f, star.Reorder()))

	// The GPiCSR3 layout built field by field rather than by WriteBinary.
	f.Add(handBuiltPath())

	// Hostile headers: a snapshot declaring a huge vertex count with no
	// data behind it, a bad magic, and the versions no longer read.
	f.Add(v3Header(1 << 40))
	f.Add(v3Header(MaxVertices-1, 0, 0, 0, 0))
	f.Add([]byte("GPiCSR9\nxxxxxxxx"))
	f.Add(append([]byte("GPiCSR1\n"), handBuiltPath()[len(binaryMagic):]...))
	f.Add(append([]byte("GPiCSR2\n"), handBuiltPath()[len(binaryMagic):]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must satisfy the graph invariants...
		if err := g.Validate(); err != nil {
			t.Fatalf("ReadBinary returned an invalid graph: %v", err)
		}
		// ...and survive a write/read round-trip with its shape intact.
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("re-encoding accepted graph: %v", err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-reading accepted graph: %v", err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() ||
			g2.NumAdjSlots() != g.NumAdjSlots() || g2.IsReordered() != g.IsReordered() {
			t.Fatalf("round-trip changed shape: %d/%d/%d/%v -> %d/%d/%d/%v",
				g.NumVertices(), g.NumEdges(), g.NumAdjSlots(), g.IsReordered(),
				g2.NumVertices(), g2.NumEdges(), g2.NumAdjSlots(), g2.IsReordered())
		}
	})
}

// FuzzBuild checks the linear preparation path against the sort-based
// reference on arbitrary edge lists: the first byte is the vertex count, each
// following pair of bytes an edge, its endpoints taken modulo the count.
// Run continuously with
//
//	go test -run '^$' -fuzz=FuzzBuild -fuzztime=30s ./internal/graph
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{5, 0, 1, 1, 2, 2, 0, 1, 0, 3, 3, 0, 1, 4, 2})
	f.Add([]byte{9, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 1, 2, 3, 4})
	f.Add([]byte{200, 7, 199, 199, 7, 3, 150, 150, 3, 7, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var n int
		var edges [][2]uint32
		if len(data) > 0 && data[0] > 0 {
			n = int(data[0])
			for i := 1; i+1 < len(data); i += 2 {
				edges = append(edges, [2]uint32{uint32(data[i]) % uint32(n), uint32(data[i+1]) % uint32(n)})
			}
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(n, len(edges))
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		b.SetNumVertices(n)
		if d := sameCSR(g, matchesReference(t, "fuzzed edges", b)); d != "" {
			t.Fatalf("FromEdges and Build differ in the %s", d)
		}
	})
}
