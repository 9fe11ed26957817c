package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// This file implements the two on-disk formats GraphPi works with:
//
//   - a whitespace-separated edge-list text format (the form the paper's
//     datasets ship in; "users only need to input a pattern and a data graph
//     in the form of adjacency lists", §III), and
//   - a fast binary CSR snapshot so large synthetic datasets need to be
//     generated only once.

// ReadEdgeList parses a whitespace-separated edge list. Lines starting with
// '#', '%' or '//' are comments. Vertex ids must be non-negative integers;
// ids are used as-is (dense renumbering is the caller's concern, see
// CompactIDs). The graph is undirected: "u v" and "v u" are the same edge.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	b := NewBuilder(0, 1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' || strings.HasPrefix(line, "//") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected two vertex ids, got %q", lineNo, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex id %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex id %q: %v", lineNo, fields[1], err)
		}
		b.AddEdge(uint32(u), uint32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return b.Build()
}

// LoadEdgeListFile reads an edge-list file from disk.
func LoadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadEdgeList(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// WriteEdgeList writes the graph as an edge list, one undirected edge per
// line with the smaller endpoint first.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if u > uint32(v) {
				if _, err := fmt.Fprintf(bw, "%d %d\n", v, u); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// The binary snapshot format is GPiCSR3: the raw CSR arrays plus the dataset
// name, the degree-ordered reorder map of an Optimize()d graph (so a
// reloaded graph's Enumerate still reports original vertex ids), and the
// hub-bitmap budget and degree floor (so a view tuned with OptimizeHubs
// rebuilds the same hub set on load). Hub bitmaps themselves are rebuilt on
// load, not stored: they are cheap to reconstruct and their packed form
// would dominate the file. Older versions (GPiCSR1, GPiCSR2) are rejected by
// name; regenerate them from the source graph.
const (
	snapshotPrefix = "GPiCSR"
	binaryMagic    = snapshotPrefix + "3\n"

	// maxSnapshotName bounds the stored dataset-name length so a corrupt
	// header cannot drive a huge allocation.
	maxSnapshotName = 1 << 16

	// maxSnapshotHubFloor bounds the stored hub degree floor; no vertex can
	// have a degree above MaxVertices, so anything larger is corruption.
	maxSnapshotHubFloor = int64(MaxVertices)
)

// WriteBinary writes the graph in the little-endian GPiCSR3 snapshot layout:
//
//	magic "GPiCSR3\n"
//	n        int64            vertex count
//	nameLen  int64            + nameLen bytes of dataset name
//	mapLen   int64            0, or n for a reordered graph
//	newToOld [mapLen]uint32   new→old id map (old→new is reconstructed)
//	hubBytes int64            hub-bitmap memory to rebuild on load (0 = none)
//	hubFloor int64            hub degree floor to rebuild with (0 = default)
//	offsets  [n+1]int64       always present, even for n = 0
//	adj      [offsets[n]]uint32
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	n := int64(g.NumVertices())
	name := g.name
	if len(name) > maxSnapshotName {
		name = name[:maxSnapshotName]
	}
	for _, v := range []int64{n, int64(len(name))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(len(g.newToOld))); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.newToOld); err != nil {
		return err
	}
	var hubBytes, hubFloor int64
	if g.numHubs > 0 {
		// HubMemoryBytes is exactly the budget BuildHubBitmaps needs to
		// reproduce the same hub count on load; the floor must ride along
		// or a tuned view would rebuild against the default.
		hubBytes = g.HubMemoryBytes()
		hubFloor = int64(g.hubFloor)
	}
	for _, v := range []int64{hubBytes, hubFloor} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	offsets := g.offsets
	if offsets == nil {
		// The zero-value Graph has nil offsets; the format always carries
		// the n+1 offsets array so readers never hit EOF on empty graphs.
		offsets = []int64{0}
	}
	if err := binary.Write(bw, binary.LittleEndian, offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.adj); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary reads a GPiCSR3 snapshot produced by WriteBinary and validates
// its structural invariants before returning. A reordered graph comes back
// with its id maps intact and its hub bitmaps rebuilt under the stored
// budget and degree floor. Snapshots of older versions fail with an error
// that names the version.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: reading binary header: %w", err)
	}
	switch m := string(magic); {
	case m == binaryMagic:
		return readBinary(br)
	case strings.HasPrefix(m, snapshotPrefix) && strings.HasSuffix(m, "\n"):
		return nil, fmt.Errorf("graph: %s snapshot: only %s is read; regenerate the snapshot from its source graph",
			strings.TrimSpace(m), strings.TrimSpace(binaryMagic))
	default:
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
}

// readChunked reads count little-endian words, growing the result only as
// fast as real file bytes arrive: a corrupt header claiming billions of
// words costs one bounded buffer before the truncation error surfaces, not
// a count-sized up-front allocation.
func readChunked[T int64 | uint32](br *bufio.Reader, count int64, what string) ([]T, error) {
	if count < 0 {
		return nil, fmt.Errorf("graph: negative %s length %d", what, count)
	}
	step := count
	if step > adjChunkWords {
		step = adjChunkWords
	}
	out := make([]T, 0, step)
	buf := make([]T, step)
	for int64(len(out)) < count {
		k := count - int64(len(out))
		if k > adjChunkWords {
			k = adjChunkWords
		}
		if err := binary.Read(br, binary.LittleEndian, buf[:k]); err != nil {
			return nil, fmt.Errorf("graph: reading %s: %w", what, err)
		}
		out = append(out, buf[:k]...)
	}
	return out, nil
}

// readBinary reads the GPiCSR3 layout after its magic (see WriteBinary).
func readBinary(br *bufio.Reader) (*Graph, error) {
	n, err := readCount(br)
	if err != nil {
		return nil, err
	}
	var nameLen int64
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, fmt.Errorf("graph: reading name length: %w", err)
	}
	if nameLen < 0 || nameLen > maxSnapshotName {
		return nil, fmt.Errorf("graph: invalid name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("graph: reading name: %w", err)
	}
	var mapLen int64
	if err := binary.Read(br, binary.LittleEndian, &mapLen); err != nil {
		return nil, fmt.Errorf("graph: reading reorder map length: %w", err)
	}
	if mapLen != 0 && mapLen != n {
		return nil, fmt.Errorf("graph: reorder map length %d for %d vertices", mapLen, n)
	}
	g := &Graph{name: string(name)}
	if mapLen > 0 {
		g.newToOld, err = readChunked[uint32](br, mapLen, "reorder map")
		if err != nil {
			return nil, err
		}
		g.oldToNew = make([]uint32, mapLen)
		seen := make([]bool, mapLen)
		for newV, oldV := range g.newToOld {
			if int64(oldV) >= mapLen || seen[oldV] {
				return nil, fmt.Errorf("graph: reorder map is not a permutation at %d", newV)
			}
			seen[oldV] = true
			g.oldToNew[oldV] = uint32(newV)
		}
	}
	var hubBytes int64
	if err := binary.Read(br, binary.LittleEndian, &hubBytes); err != nil {
		return nil, fmt.Errorf("graph: reading hub budget: %w", err)
	}
	if hubBytes < 0 {
		return nil, fmt.Errorf("graph: negative hub budget %d", hubBytes)
	}
	var hubFloor int64
	if err := binary.Read(br, binary.LittleEndian, &hubFloor); err != nil {
		return nil, fmt.Errorf("graph: reading hub degree floor: %w", err)
	}
	if hubFloor < 0 || hubFloor > maxSnapshotHubFloor {
		return nil, fmt.Errorf("graph: invalid hub degree floor %d", hubFloor)
	}
	g.offsets, err = readChunked[int64](br, n+1, "offsets")
	if err != nil {
		return nil, err
	}
	if err := readAdjacency(br, g, n); err != nil {
		return nil, err
	}
	if hubBytes > 0 {
		g.BuildHubBitmaps(hubBytes, int(hubFloor))
	}
	return g, nil
}

func readCount(br *bufio.Reader) (int64, error) {
	var n int64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return 0, fmt.Errorf("graph: reading vertex count: %w", err)
	}
	if n < 0 || n > MaxVertices {
		return 0, fmt.Errorf("graph: invalid vertex count %d", n)
	}
	return n, nil
}

// adjChunkWords bounds how much adjacency is allocated per read step, so a
// corrupt offsets array claiming an enormous edge count produces a truncated-
// file error instead of a giant up-front allocation (or a makeslice panic).
const adjChunkWords = 1 << 20

// readAdjacency validates the already-read offsets, then reads the adjacency
// array they size — incrementally, so the allocation only ever grows as fast
// as real file bytes arrive — and checks the CSR invariants.
func readAdjacency(br *bufio.Reader, g *Graph, n int64) error {
	if n > 0 && g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets must start at 0, got %d", g.offsets[0])
	}
	for v := int64(0); v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	total := g.offsets[n]
	if total < 0 {
		return fmt.Errorf("graph: negative adjacency length %d", total)
	}
	// Each undirected edge occupies two slots and the graph is simple, so
	// the adjacency can never exceed n*(n-1) slots. Only check when the
	// product cannot overflow int64 (n ≤ √2⁶³); beyond that any int64
	// total is below the true bound anyway.
	const maxExactN = 3037000499
	if n > 0 && n <= maxExactN && total > n*(n-1) {
		return fmt.Errorf("graph: adjacency length %d impossible for %d vertices", total, n)
	}
	adj, err := readChunked[uint32](br, total, "adjacency")
	if err != nil {
		return err
	}
	g.adj = adj
	if err := g.Validate(); err != nil {
		return fmt.Errorf("graph: corrupt snapshot: %w", err)
	}
	return nil
}

// SaveBinaryFile writes the graph snapshot to path.
func SaveBinaryFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		_ = f.Close() // the write error takes precedence
		return err
	}
	return f.Close()
}

// LoadAnyFile reads a graph from path, auto-detecting the binary snapshot
// format against whitespace edge-list text (the detection the facade's
// LoadGraph and the query service's admin loader share).
func LoadAnyFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, _ := br.Peek(len(snapshotPrefix))
	var g *Graph
	if string(head) == snapshotPrefix {
		g, err = ReadBinary(br)
	} else {
		g, err = ReadEdgeList(br)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// LoadBinaryFile reads a snapshot from path.
func LoadBinaryFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadBinary(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// CompactIDs returns a copy of g with isolated vertices removed and the
// remaining vertices renumbered densely, preserving relative order. SNAP
// edge lists frequently have sparse id spaces; compacting keeps CSR arrays
// proportional to the live vertex count.
func CompactIDs(g *Graph) (*Graph, error) {
	n := g.NumVertices()
	remap := make([]uint32, n)
	next := uint32(0)
	for v := 0; v < n; v++ {
		if g.Degree(uint32(v)) > 0 {
			remap[v] = next
			next++
		}
	}
	b := NewBuilder(int(next), int(g.NumEdges()))
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if u > uint32(v) {
				b.AddEdge(remap[v], remap[u])
			}
		}
	}
	b.SetNumVertices(int(next))
	out, err := b.Build()
	if err != nil {
		return nil, err
	}
	out.SetName(g.Name())
	return out, nil
}
