package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// These tests pin the robustness contract of ReadBinary: cluster workers
// load GPiCSR3 snapshots from disk they did not write (shared filesystems,
// rsync'd replicas), so every corrupt or truncated input must surface as an
// error — never a panic, never a silently wrong graph.

// readNoPanic runs ReadBinary and converts panics into test failures tagged
// with what was being read.
func readNoPanic(t *testing.T, what string, data []byte) (*Graph, error) {
	t.Helper()
	var (
		g   *Graph
		err error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: ReadBinary panicked: %v", what, r)
			}
		}()
		g, err = ReadBinary(bytes.NewReader(data))
	}()
	return g, err
}

// snapshotOf serializes g and returns the bytes.
func snapshotOf(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v3 layout offsets for a snapshot with an empty name and no reorder map:
// magic(8) n(8) nameLen(8) mapLen(8) hubBytes(8) hubFloor(8)
// offsets(8(n+1)) adj(4·slots).
const (
	offN        = 8
	offNameLen  = 16
	offMapLen   = 24
	offHubBytes = 32
	offHubFloor = 40
	offOffsets  = 48
)

// handBuiltPath is the GPiCSR3 snapshot of the 3-vertex path 0-1-2 written
// field by field from the layout WriteBinary documents, not by WriteBinary.
func handBuiltPath() []byte {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	// n, nameLen, mapLen, hubBytes, hubFloor, offsets.
	for _, word := range []int64{3, 0, 0, 0, 0, 0, 1, 3, 4} {
		binary.Write(&buf, binary.LittleEndian, word)
	}
	binary.Write(&buf, binary.LittleEndian, []uint32{1, 0, 2, 1})
	return buf.Bytes()
}

// v3Header is a GPiCSR3 header claiming n vertices, followed by the given
// int64 fields (name length, map length, ...) and nothing else.
func v3Header(n int64, fields ...int64) []byte {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	binary.Write(&buf, binary.LittleEndian, n)
	binary.Write(&buf, binary.LittleEndian, fields)
	return buf.Bytes()
}

func pathGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(3, [][2]uint32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestReadBinaryTruncatedEverywhere feeds every strict prefix of valid
// snapshots to ReadBinary — plain, named, reordered-with-hubs and the
// hand-built layout — so every parser section gets cut mid-field at least
// once.
func TestReadBinaryTruncatedEverywhere(t *testing.T) {
	plain := pathGraph(t)
	named := pathGraph(t)
	named.SetName("truncation-fixture")
	opt := BarabasiAlbert(300, 4, 9).Reorder()
	opt.BuildHubBitmaps(1<<20, 1)
	if opt.NumHubs() == 0 {
		t.Fatal("fixture needs hubs so the hub-budget field is nonzero")
	}
	fixtures := map[string][]byte{
		"plain":      snapshotOf(t, plain),
		"named":      snapshotOf(t, named),
		"optimized":  snapshotOf(t, opt),
		"hand-built": handBuiltPath(),
	}
	if !bytes.Equal(fixtures["hand-built"], fixtures["plain"]) {
		t.Fatal("WriteBinary's output differs from the documented GPiCSR3 layout")
	}
	for name, data := range fixtures {
		if _, err := readNoPanic(t, name, data); err != nil {
			t.Fatalf("%s: intact snapshot rejected: %v", name, err)
		}
		for cut := 0; cut < len(data); cut++ {
			if _, err := readNoPanic(t, fmt.Sprintf("%s[:%d]", name, cut), data[:cut]); err == nil {
				t.Errorf("%s truncated to %d/%d bytes accepted", name, cut, len(data))
				break
			}
		}
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	data := snapshotOf(t, pathGraph(t))
	for _, magic := range []string{"GPiCSR9\n", "XXXXXXXX", "GPiCSR2 ", "GPiCSR3 "} {
		bad := append([]byte{}, data...)
		copy(bad, magic)
		if _, err := readNoPanic(t, magic, bad); err == nil {
			t.Errorf("magic %q accepted", magic)
		}
	}
}

// TestReadBinaryRejectsOldVersions: GPiCSR1 and GPiCSR2 snapshots are no
// longer read. The error names the version and says to regenerate, both
// from ReadBinary and through LoadAnyFile's format detection.
func TestReadBinaryRejectsOldVersions(t *testing.T) {
	body := snapshotOf(t, pathGraph(t))[len(binaryMagic):]
	dir := t.TempDir()
	for _, version := range []string{"GPiCSR1", "GPiCSR2"} {
		data := append([]byte(version+"\n"), body...)
		check := func(how string, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("%s: %s snapshot accepted", how, version)
			}
			if msg := err.Error(); !strings.Contains(msg, version) || !strings.Contains(msg, "regenerate") {
				t.Errorf("%s: error %q does not name %s and say to regenerate", how, msg, version)
			}
		}
		_, err := readNoPanic(t, version, data)
		check("ReadBinary", err)
		_, err = readNoPanic(t, version+" header only", []byte(version+"\n"))
		check("ReadBinary (header only)", err)
		path := filepath.Join(dir, version+".bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = LoadAnyFile(path)
		check("LoadAnyFile", err)
	}
}

// put64 overwrites the int64 at byte offset off.
func put64(data []byte, off int, v int64) {
	binary.LittleEndian.PutUint64(data[off:], uint64(v))
}

// TestReadBinaryInconsistentOffsets corrupts the offsets array in every way
// a hostile or bit-rotted file could: non-monotone, nonzero start, negative
// total, a total claiming far more adjacency than the file (or any simple
// graph) can hold.
func TestReadBinaryInconsistentOffsets(t *testing.T) {
	base := snapshotOf(t, pathGraph(t))
	offsetAt := func(i int) int { return offOffsets + 8*i }
	cases := map[string]func(data []byte){
		"non-monotone":   func(d []byte) { put64(d, offsetAt(1), 3); put64(d, offsetAt(2), 1) },
		"nonzero start":  func(d []byte) { put64(d, offsetAt(0), 2) },
		"negative total": func(d []byte) { put64(d, offsetAt(3), -4) },
		"huge total": func(d []byte) {
			// All offsets monotone but claiming an absurd adjacency: the
			// reader must error (truncation or impossibility), not
			// allocate petabytes.
			put64(d, offsetAt(3), 1<<40)
		},
		"impossible for n": func(d []byte) {
			// 3 vertices admit at most 6 slots; claim 8 and pad the file
			// so a naive reader would happily parse garbage.
			put64(d, offsetAt(3), 8)
		},
		"negative vertex count": func(d []byte) { put64(d, offN, -1) },
		"absurd vertex count":   func(d []byte) { put64(d, offN, 1<<40) },
		"negative name length":  func(d []byte) { put64(d, offNameLen, -5) },
		"huge name length":      func(d []byte) { put64(d, offNameLen, 1<<30) },
		"bad map length":        func(d []byte) { put64(d, offMapLen, 2) },
		"negative hub budget":   func(d []byte) { put64(d, offHubBytes, -1) },
		"negative hub floor":    func(d []byte) { put64(d, offHubFloor, -1) },
		"absurd hub floor":      func(d []byte) { put64(d, offHubFloor, int64(MaxVertices)+1) },
	}
	for name, corrupt := range cases {
		data := append([]byte{}, base...)
		corrupt(data)
		if name == "impossible for n" {
			data = append(data, make([]byte, 16)...)
		}
		if _, err := readNoPanic(t, name, data); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
}

// TestReadBinaryHugeHeaderCounts: a tiny corrupt file whose header claims
// billions of vertices (within MaxVertices, so readCount accepts it) must
// fail on truncation without count-sized allocations — the offsets, reorder
// map and adjacency reads all grow only as real file bytes arrive. The test
// enforces the bound via the allocation accountant, not wall-clock luck.
func TestReadBinaryHugeHeaderCounts(t *testing.T) {
	n := int64(MaxVertices - 1)
	headers := map[string][]byte{
		// name length, map length, hub budget, hub floor; no offsets.
		"offsets": v3Header(n, 0, 0, 0, 0),
		// name length, map length = n; no map.
		"reorder map": v3Header(n, 0, n),
		// Valid offsets claiming 2^33 adjacency slots; no adjacency.
		"adjacency": func() []byte {
			const m = 100000
			fields := make([]int64, 4+m+1)
			fields[len(fields)-1] = 1 << 33
			return v3Header(m, fields...)
		}(),
	}
	for name, data := range headers {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := readNoPanic(t, name, data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: truncated huge-count snapshot accepted", name)
		}
		// One chunk buffer plus its accumulator is ≤ 16 MiB; 64 MiB of
		// headroom separates that decisively from the ~34 GB a
		// count-sized allocation would attempt.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Errorf("%s: allocated %d MiB for a %d-byte file", name, grew>>20, len(data))
		}
	}
}

// TestReadBinaryBeyondOneChunk: an adjacency longer than the first
// allocation (adjChunkWords) grows while it is read, comes back exact, and
// a cut in its second chunk is still a truncation error.
func TestReadBinaryBeyondOneChunk(t *testing.T) {
	g := Complete(1100)
	if g.NumAdjSlots() <= adjChunkWords {
		t.Fatalf("K1100 has %d slots, not more than one chunk", g.NumAdjSlots())
	}
	data := snapshotOf(t, g)
	back, err := readNoPanic(t, "K1100", data)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameCSR(back, g); d != "" {
		t.Fatalf("K1100 round trip changed the %s", d)
	}
	if _, err := readNoPanic(t, "K1100 cut", data[:len(data)-4]); err == nil {
		t.Fatal("snapshot cut in its second adjacency chunk accepted")
	}
}

// TestReadBinaryBadReorderMap: a stored new→old map that is not a
// permutation must be rejected (a wrong map silently mistranslates every
// Enumerate result).
func TestReadBinaryBadReorderMap(t *testing.T) {
	g := BarabasiAlbert(50, 3, 3).Reorder()
	data := snapshotOf(t, g)
	nameLen := int(binary.LittleEndian.Uint64(data[offNameLen:]))
	mapStart := offMapLen + nameLen + 8
	// Duplicate entry: map[1] = map[0].
	bad := append([]byte{}, data...)
	copy(bad[mapStart+4:mapStart+8], bad[mapStart:mapStart+4])
	if _, err := readNoPanic(t, "duplicate map entry", bad); err == nil {
		t.Error("non-permutation reorder map accepted")
	}
	// Out-of-range entry.
	bad = append([]byte{}, data...)
	binary.LittleEndian.PutUint32(bad[mapStart:], uint32(g.NumVertices()))
	if _, err := readNoPanic(t, "out-of-range map entry", bad); err == nil {
		t.Error("out-of-range reorder map accepted")
	}
}

// TestReadBinaryAsymmetricAdjacency: Validate must catch structurally sized
// but semantically broken CSR payloads.
func TestReadBinaryAsymmetricAdjacency(t *testing.T) {
	data := snapshotOf(t, pathGraph(t))
	// adjacency is [1, 0, 2, 1]; replace the trailing 1 (2's neighbor 1)
	// with 0, breaking symmetry (0 has no edge to 2).
	bad := append([]byte{}, data...)
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], 0)
	if _, err := readNoPanic(t, "asymmetric", bad); err == nil {
		t.Error("asymmetric adjacency accepted")
	}
}

// TestBuildHubBitmapsDegreeFloor covers the new floor parameter: 0 keeps the
// default, a floor of 1 admits low-degree vertices the default rejects, a
// huge floor yields none.
func TestBuildHubBitmapsDegreeFloor(t *testing.T) {
	g := GNM(500, 2000, 7).Reorder() // avg degree 8, max well below 64
	if k := g.BuildHubBitmaps(1<<22, 0); k != 0 {
		t.Fatalf("default floor built %d hubs on a flat graph", k)
	}
	k := g.BuildHubBitmaps(1<<22, 1)
	if k == 0 {
		t.Fatal("floor 1 built no hubs")
	}
	for v := 0; v < k; v++ {
		if g.Degree(uint32(v)) < 1 {
			t.Fatalf("hub %d below floor", v)
		}
	}
	if k2 := g.BuildHubBitmaps(1<<22, 1<<30); k2 != 0 {
		t.Fatalf("absurd floor built %d hubs", k2)
	}
}

// TestSnapshotPersistsHubDegreeFloor pins the GPiCSR3 field: on a flat graph
// whose hubs only exist below the default floor, a save/load round trip must
// reproduce the tuned hub set — the pre-GPiCSR3 behavior (rebuild with the
// default floor) silently dropped every hub.
func TestSnapshotPersistsHubDegreeFloor(t *testing.T) {
	g := GNM(500, 2000, 7).Reorder() // max degree well below the default floor
	if k := g.BuildHubBitmaps(1<<22, 4); k == 0 {
		t.Fatal("fixture built no hubs at floor 4")
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.hubFloor != 4 {
		t.Errorf("reloaded floor = %d, want 4", g2.hubFloor)
	}
	if g2.NumHubs() != g.NumHubs() {
		t.Errorf("reloaded hubs = %d, want %d", g2.NumHubs(), g.NumHubs())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if (g.HubBitmap(uint32(v)) != nil) != (g2.HubBitmap(uint32(v)) != nil) {
			t.Fatalf("hub bitmap presence differs at vertex %d", v)
		}
	}
}

// TestReadBinaryBadHubFloor rejects corrupt floor values instead of building
// nonsense hub sets.
func TestReadBinaryBadHubFloor(t *testing.T) {
	g := BarabasiAlbert(300, 5, 3).Reorder()
	g.SetName("") // keep the floor field at a computable offset
	g.BuildHubBitmaps(1<<20, 0)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The floor field sits right after the hub budget: locate it from the
	// layout (magic, n, nameLen, name, mapLen, map, hubBytes, hubFloor).
	off := 8 + 8 + 8 + 0 + 8 + 4*g.NumVertices() + 8
	for _, bad := range []int64{-1, int64(MaxVertices) + 1} {
		mut := append([]byte{}, data...)
		binary.LittleEndian.PutUint64(mut[off:], uint64(bad))
		if _, err := readNoPanic(t, fmt.Sprintf("floor=%d", bad), mut); err == nil {
			t.Errorf("hub floor %d accepted", bad)
		}
	}
}
