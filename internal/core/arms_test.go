package core

// The arm table: every way the engine can be made to run one configuration
// on one graph is a row (an arm), and checkArms runs a list of rows and holds
// each to one oracle count. Each restriction set removes redundant work
// completely (paper §IV-A), so every executor, nest, lowering mark,
// orientation, worker count and task cut must return the same exact count;
// the equivalence tests differ only in their graphs, configurations and arm
// lists, and an arm added here is one more row any of them can list. The
// benchmarks time rows of the same table (benchArms).

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"graphpi/internal/codegen"
	"graphpi/internal/graph"
	"graphpi/internal/telemetry"
)

// entry is how an arm takes its count.
type entry uint8

const (
	viaRun       entry = iota // Bound.Run over the engine's own root tasks
	viaCounter                // Counters over explicit ranges of the binding's task space, as cluster workers run them
	viaEnumerate              // Config.Enumerate, checksummed
)

// strip names the lowering marks an arm removes from the configuration's
// nests. Either changes how a step is computed, never which steps run or what
// they return.
type strip uint8

const (
	keepMarks strip = iota
	noMemo          // loop-invariant steps run their kernel every time
	noRows          // no step probes a root row
)

// arm is one row of the table.
type arm struct {
	entry   entry
	tier    Tier // asked of Bind: the clique kernel runs only on total-order cliques
	iep     bool // the IEP nest, else the full one (Enumerate always walks the full nest)
	strip   strip
	mirror  bool // Config.Mirror's orientation instead of the planned one
	workers int  // Run's workers, or the Counters the ranges are dealt to
	chunk   int  // RunOptions.ChunkSize, or a Counter's range length (0: one range)
	stats   bool // telemetry on
}

// String names a's columns that differ from the defaults axes fills in.
func (a arm) String() string {
	var cols []string
	col := func(set bool, format string, v any) {
		if set {
			cols = append(cols, fmt.Sprintf(format, v))
		}
	}
	col(a.entry != viaRun, "%s", [...]string{"", "counter", "enumerate"}[a.entry])
	col(a.tier != TierAuto, "tier=%s", a.tier)
	col(a.iep, "%s", "iep")
	col(a.strip != keepMarks, "%s", [...]string{"", "noMemo", "noRows"}[a.strip])
	col(a.mirror, "%s", "mirror")
	col(a.workers != 1, "workers=%d", a.workers)
	col(a.chunk != 0, "chunk=%d", a.chunk)
	col(a.stats, "%s", "stats")
	if cols == nil {
		return "default"
	}
	return strings.Join(cols, " ")
}

// axes lists values per column; arms returns their product. A nil column
// keeps the default: Run, TierAuto, the full nest, every mark, the planned
// orientation, one worker, the engine's task cut, no telemetry.
type axes struct {
	entry   []entry
	tier    []Tier
	iep     []bool
	strip   []strip
	mirror  []bool
	workers []int
	chunk   []int
	stats   []bool
}

// Column values the tests share.
var (
	both        = []bool{false, true}
	on          = []bool{true}
	interpreted = []Tier{TierInterpret}
	counted     = []entry{viaCounter}
	enumerated  = []entry{viaEnumerate}
)

func expand[T any](as []arm, vals []T, set func(*arm, T)) []arm {
	if len(vals) == 0 {
		return as
	}
	out := make([]arm, 0, len(as)*len(vals))
	for _, a := range as {
		for _, v := range vals {
			set(&a, v)
			out = append(out, a)
		}
	}
	return out
}

func (x axes) arms() []arm {
	as := []arm{{workers: 1}}
	as = expand(as, x.entry, func(a *arm, v entry) { a.entry = v })
	as = expand(as, x.tier, func(a *arm, v Tier) { a.tier = v })
	as = expand(as, x.iep, func(a *arm, v bool) { a.iep = v })
	as = expand(as, x.strip, func(a *arm, v strip) { a.strip = v })
	as = expand(as, x.mirror, func(a *arm, v bool) { a.mirror = v })
	as = expand(as, x.workers, func(a *arm, v int) { a.workers = v })
	as = expand(as, x.chunk, func(a *arm, v int) { a.chunk = v })
	as = expand(as, x.stats, func(a *arm, v bool) { a.stats = v })
	return as
}

// table concatenates the products of xs.
func table(xs ...axes) []arm {
	var as []arm
	for _, x := range xs {
		as = append(as, x.arms()...)
	}
	return as
}

// config returns the configuration a runs: planned or mirror, with a's marks
// stripped.
func (a arm) config(planned, mirror *Config) *Config {
	c := planned
	if a.mirror {
		c = mirror
	}
	switch a.strip {
	case noMemo:
		return withoutMemo(c)
	case noRows:
		return withoutRows(c)
	}
	return c
}

// armResult is what one arm returned.
type armResult struct {
	count int64
	sum   uint64              // the enumeration checksum (viaEnumerate only)
	stats *telemetry.RunStats // nil without telemetry
}

// run takes one count of c on g the arm's way and returns it with the
// binding that ran. With adj, an enumeration checks every visit.
func (a arm) run(t testing.TB, label string, g *graph.Graph, c *Config, adj *adjMatrix) (armResult, Bound) {
	t.Helper()
	b := c.Bind(a.iep, a.tier)
	opt := RunOptions{Workers: a.workers, ChunkSize: a.chunk}
	if a.stats {
		opt.Stats = telemetry.NewRunStats(c.N())
	}
	res := armResult{stats: opt.Stats}
	var err error
	switch a.entry {
	case viaRun:
		res.count, err = b.Run(context.Background(), g, opt)
	case viaCounter:
		if a.stats {
			t.Fatalf("%s: a Counter keeps no telemetry", label)
		}
		res.count = countRanges(t, label, b, g, a)
	case viaEnumerate:
		b = c.enumerator()
		res.count, res.sum, err = enumerateChecked(t, label, c, g, adj, opt)
	}
	if err != nil {
		t.Errorf("%s: %v", label, err)
	}
	return res, b
}

// checkArms runs cfg on g under every arm and holds each to want, the count
// of one oracle computed once for (g, cfg). Beside the count it checks:
//
//   - the first enumeration arm visits only injective maps onto edges of g,
//     as many as it returns, and every later one finds the same subgraphs:
//     the checksum, a sum over the subgraphs found, independent of the
//     orientation and of the id space, equals the first one's;
//   - a Counter runs the executor the binding names;
//   - under telemetry, every level's kernels and memo hits sum to its
//     intersections, memo hits come only from levels the nest marks, a
//     non-empty task space scans at level 0 (an edgeless graph gives a binding
//     that takes slot tasks nothing to run), and the clique kernel's leaf level
//     scans exactly the embeddings it counts;
//   - arms of one cell — equal in every column but the marks — with
//     telemetry on book identical counters but for the kernel split, the
//     sampled wall time and the memo hits; those too when the arms keep the
//     same memo marks and one worker runs them (the hits of a worker's memo
//     depend on which roots it happened to take).
//
// It returns each arm's result, in order, for checks of the caller's own.
func checkArms(t *testing.T, name string, g *graph.Graph, cfg *Config, want int64, arms []arm) []armResult {
	t.Helper()
	var mirror *Config
	if slices.ContainsFunc(arms, func(a arm) bool { return a.mirror }) {
		var err error
		if mirror, err = cfg.Mirror(); err != nil {
			t.Fatalf("%s: mirror: %v", name, err)
		}
	}
	out := make([]armResult, len(arms))
	cells := map[arm]int{} // a cell's first arm with telemetry
	sumRef := -1           // the first enumeration arm
	for i, a := range arms {
		label := fmt.Sprintf("%s [%s]", name, a)
		var adj *adjMatrix
		if a.entry == viaEnumerate && sumRef < 0 {
			adj, sumRef = newAdjMatrix(g), i
		}
		res, b := a.run(t, label, g, a.config(cfg, mirror), adj)
		out[i] = res
		if res.count != want {
			t.Errorf("%s: counted %d, want %d", label, res.count, want)
		}
		if a.entry == viaEnumerate && res.sum != out[sumRef].sum {
			t.Errorf("%s: enumeration checksum %x, [%s] %x", label, res.sum, arms[sumRef], out[sumRef].sum)
		}
		if !a.stats {
			continue
		}
		checkStats(t, label, g, b, res.stats, res.count)
		cell := a
		cell.strip = keepMarks
		if j, ok := cells[cell]; ok {
			hits := a.workers == 1 && (a.strip == noMemo) == (arms[j].strip == noMemo)
			sameCounters(t, label, arms[j], out[j].stats, res.stats, hits)
		} else {
			cells[cell] = i
		}
	}
	return out
}

// benchArms times cfg on g under each arm, one sub-benchmark per arm. An arm
// asking for an executor cfg cannot bind is skipped.
func benchArms(b *testing.B, g *graph.Graph, cfg *Config, arms []arm) {
	for _, a := range arms {
		if a.tier != TierAuto && cfg.Bind(a.iep, a.tier).Tier() != a.tier {
			continue
		}
		c, name := a.config(cfg, nil), a.String()
		b.Run(name, func(b *testing.B) {
			for range b.N {
				a.run(b, name, g, c, nil)
			}
		})
	}
}

// checkStats checks the counters one run of b booked on g.
func checkStats(t *testing.T, label string, g *graph.Graph, b Bound, st *telemetry.RunStats, count int64) {
	t.Helper()
	marked := memoLevels(b.prog)
	for d, l := range st.Levels {
		var kernels uint64
		for _, k := range l.Kernels {
			kernels += k
		}
		if kernels+l.MemoHits != l.Intersections {
			t.Errorf("%s level %d: kernels %d + memo hits %d != intersections %d", label, d, kernels, l.MemoHits, l.Intersections)
		}
		if l.MemoHits > 0 && (b.clique || !marked[d]) {
			t.Errorf("%s level %d: %d memo hits on a level the nest does not mark", label, d, l.MemoHits)
		}
	}
	if b.taskSpace(g) > 0 && st.Levels[0].Scans == 0 {
		t.Errorf("%s: telemetry recorded no level-0 scans", label)
	}
	if leaf := st.Levels[len(st.Levels)-1]; b.clique && leaf.Candidates != uint64(count) {
		t.Errorf("%s: the clique kernel's leaf level scanned %d candidates, count is %d", label, leaf.Candidates, count)
	}
}

// sameCounters checks that got, booked by one arm, matches ref, booked by
// the first arm of its cell, in every counter but the kernel split, the
// sampled wall time and, unless hits, the memo hits.
func sameCounters(t *testing.T, label string, refArm arm, ref, got *telemetry.RunStats, hits bool) {
	t.Helper()
	for d := range got.Levels {
		g, r := got.Levels[d], ref.Levels[d]
		g.Kernels, g.WallNS = r.Kernels, r.WallNS
		if !hits {
			g.MemoHits = r.MemoHits
		}
		if g != r {
			t.Errorf("%s level %d: stats %+v, [%s] %+v", label, d, got.Levels[d], refArm, r)
		}
	}
}

// countRanges counts b on g through Counters, one per worker, dealt ranges
// of b's task space round-robin: a.chunk slots or vertices each, or the whole
// space as one range.
func countRanges(t testing.TB, label string, b Bound, g *graph.Graph, a arm) int64 {
	t.Helper()
	n := b.taskSpace(g)
	size := cmp.Or(a.chunk, max(n, 1))
	cs := make([]*Counter, a.workers)
	for i := range cs {
		cs[i] = NewCounter(b, g, nil)
		if _, k := cs[i].w.(*codegen.Clique); k != b.clique {
			t.Fatalf("%s: counter runs %T, binding resolves to tier %s", label, cs[i].w, b.Tier())
		}
	}
	for i, tk := range equalCut(n, size) {
		cs[i%len(cs)].CountRange(tk.Start, tk.End)
	}
	var raw int64
	for _, c := range cs {
		raw += c.Raw()
	}
	return b.ScaleIEP(raw)
}

// enumerateChecked enumerates c on g and returns the count and the checksum:
// the sum over visits of mix(Σ key[u]·key[v]) over the image {u, v} of each
// pattern edge, with a pseudo-random key per vertex. That is a hash of the
// subgraph found, so it does not depend on which automorphic image of it the
// orientation reports, and unlike a sum of low moments of the ids, two edge
// sets collide only by chance. With adj, it also counts the visits and
// reports every one that is not an injective map onto edges of g.
func enumerateChecked(t testing.TB, label string, c *Config, g *graph.Graph, adj *adjMatrix, opt RunOptions) (int64, uint64, error) {
	t.Helper()
	edges := c.Pattern.Edges()
	key := make([]uint64, g.NumVertices())
	for v := range key {
		key[v] = mix(uint64(v) + 1)
	}
	// Tallies sharded by the embedding buffer each worker owns: one shared
	// atomic made TestMemoMatchesStrippedProgram ~3.5 s slower on 2 cores.
	var shards [16]struct {
		sum, visits atomic.Uint64
		_           [48]byte
	}
	var bad atomic.Uint64
	var first atomic.Value
	n, err := c.Enumerate(context.Background(), g, opt, func(emb []uint32) bool {
		var h uint64
		for _, e := range edges {
			h += key[emb[e[0]]] * key[emb[e[1]]]
		}
		sh := &shards[uintptr(unsafe.Pointer(unsafe.SliceData(emb)))>>6%uintptr(len(shards))]
		sh.sum.Add(mix(h))
		if adj == nil {
			return true
		}
		sh.visits.Add(1)
		ok := true
		for _, e := range edges {
			ok = ok && adj.has(emb[e[0]], emb[e[1]])
		}
		for i := range emb {
			for j := range i {
				ok = ok && emb[i] != emb[j]
			}
		}
		if !ok && bad.Add(1) == 1 {
			first.Store(fmt.Sprint(emb))
		}
		return true
	})
	if k := bad.Load(); k > 0 {
		t.Errorf("%s: %d visits broke a pattern edge or repeated a vertex, e.g. %s", label, k, first.Load())
	}
	var sum, visits uint64
	for i := range shards {
		sum, visits = sum+shards[i].sum.Load(), visits+shards[i].visits.Load()
	}
	if adj != nil && visits != uint64(n) {
		t.Errorf("%s: Enumerate returned %d after %d visits", label, n, visits)
	}
	return n, sum, err
}

// mix is SplitMix64's finaliser.
func mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// adjMatrix is a graph's edge test in the original vertex ids embeddings
// come in, as a bit matrix: one load per pattern edge of an embedding.
type adjMatrix struct {
	w    int
	bits []uint64
}

func newAdjMatrix(g *graph.Graph) *adjMatrix {
	n := g.NumVertices()
	w := (n + 63) / 64
	m := &adjMatrix{w, make([]uint64, n*w)}
	old := g.NewToOld() // nil unless g was reordered
	for v := range n {
		for _, u := range g.Neighbors(uint32(v)) {
			a, b := uint32(v), u
			if old != nil {
				a, b = old[a], old[b]
			}
			m.bits[int(a)*m.w+int(b>>6)] |= 1 << (b & 63)
		}
	}
	return m
}

func (m *adjMatrix) has(a, b uint32) bool {
	return m.bits[int(a)*m.w+int(b>>6)]>>(b&63)&1 != 0
}

// reference is the count every arm is held to when no brute force is
// affordable: the interpreter on the full nest, one worker.
func reference(c *Config, g *graph.Graph) int64 {
	return c.Bind(false, TierInterpret).Count(g, RunOptions{Workers: 1})
}

// withoutMemo returns a copy of c whose lowered nests carry no loop-invariant
// marks, so every step evaluation runs a kernel.
func withoutMemo(c *Config) *Config {
	return withSteps(c, func(st *codegen.Step) { st.Memo = nil })
}

// withoutRows returns a copy of c whose lowered nests mark no step with a
// root row, so every step runs the hybrid kernel (vertexset.IntersectWindow).
func withoutRows(c *Config) *Config {
	return withSteps(c, func(st *codegen.Step) { st.Row = -1 })
}

// withSteps returns a copy of c whose lowered nests hold copies of c's steps
// passed through edit; c's own nests are left alone.
func withSteps(c *Config, edit func(*codegen.Step)) *Config {
	strip := func(p *codegen.Program) *codegen.Program {
		if p == nil {
			return nil
		}
		s := *p
		s.Levels = append([]codegen.Level(nil), p.Levels...)
		for d := range s.Levels {
			steps := append([]codegen.Step(nil), s.Levels[d].Steps...)
			for i := range steps {
				edit(&steps[i])
			}
			s.Levels[d].Steps = steps
		}
		return &s
	}
	s := *c
	s.progEnum, s.progIEP = strip(c.progEnum), strip(c.progIEP)
	return &s
}

// memoLevels returns the depths holding a loop-invariant step of prog.
func memoLevels(prog *codegen.Program) map[int]bool {
	ds := map[int]bool{}
	for _, lv := range prog.Levels {
		for _, st := range lv.Steps {
			if st.Memo != nil {
				ds[lv.Depth] = true
			}
		}
	}
	return ds
}

// rowSteps counts the steps of prog marked to probe a root row.
func rowSteps(prog *codegen.Program) int {
	n := 0
	for _, lv := range prog.Levels {
		for _, st := range lv.Steps {
			if st.Row >= 0 {
				n++
			}
		}
	}
	return n
}
