package codegen_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"graphpi/internal/baseline"
	"graphpi/internal/codegen"
	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
	"graphpi/internal/telemetry"
	"graphpi/internal/vertexset"
)

func configFor(t *testing.T, p *pattern.Pattern) *core.Config {
	t.Helper()
	sres := schedule.Generate(p, schedule.Options{})
	sets, err := restrict.Generate(p, restrict.Options{MaxSets: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.NewConfig(p, sres.Efficient[0], sets[0])
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestGenerateSourceShape(t *testing.T) {
	cfg := configFor(t, pattern.House())
	src, err := codegen.GenerateSource(cfg.SourceSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package main",
		"func countEmbeddings(g *csr) int64",
		"func intersect(", // hoisted intersections present
		"break // id(",    // restriction turned into a sorted-scan break
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	if !strings.Contains(src, "count++") && !strings.Contains(src, "count += int64(len(") {
		t.Error("generated source has no counting leaf")
	}
}

func TestLowerShape(t *testing.T) {
	cfg := configFor(t, pattern.House())
	prog, err := codegen.Lower(cfg.SourceSpec())
	if err != nil {
		t.Fatal(err)
	}
	if prog.N != cfg.N() || len(prog.Levels) != cfg.N() {
		t.Fatalf("lowered %d levels, want %d", len(prog.Levels), cfg.N())
	}
	if prog.IEPCut != -1 {
		t.Errorf("source spec lowered with IEP cut %d, want -1", prog.IEPCut)
	}
	if !prog.Levels[cfg.N()-1].IsLeaf {
		t.Error("last level not marked leaf")
	}
	for d, lv := range prog.Levels {
		if lv.Depth != d {
			t.Errorf("level %d records depth %d", d, lv.Depth)
		}
	}
}

// lowerDiamond lowers the 4-vertex diamond (K4 minus the edge 2-3) under the
// identity schedule: positions 2 and 3 both scan the one shared buffer
// N(v0) ∩ N(v1), built by a step at depth 1, and are independent — the shape
// where a loop's window and an IEP set meet on the same buffer.
func lowerDiamond(t *testing.T, kIEP int, lowers, uppers [][]uint8) *codegen.Program {
	t.Helper()
	diamond := pattern.MustNew(4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}}, "diamond")
	prog, err := codegen.Lower(codegen.Spec{
		N: 4, Plan: schedule.BuildPlan(diamond, 4),
		Lowers: lowers, Uppers: uppers,
		KIEP: kIEP, IEPNum: 1, IEPDen: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumBufs != 1 || len(prog.Levels[1].Steps) != 1 {
		t.Fatalf("fixture: %d buffers, %d steps at depth 1", prog.NumBufs, len(prog.Levels[1].Steps))
	}
	return prog
}

func TestLowerBoundsSteps(t *testing.T) {
	pos := func(ps ...uint8) []uint8 { return ps }
	same := func(a, b []uint8) bool { return string(a) == string(b) }

	// v2 < v1 and v3 < v1 (and v3 > v2, whose position is not bound when the
	// step runs). Without IEP both consumers of the buffer are loops sharing
	// the upper bound at position 1: it moves into the step and off both
	// loops; the position-2 bound stays where it is.
	lowers := [][]uint8{nil, nil, nil, pos(2)}
	uppers := [][]uint8{nil, nil, pos(1), pos(1)}
	prog := lowerDiamond(t, 0, lowers, uppers)
	st := prog.Levels[1].Steps[0]
	if !same(st.Uppers, pos(1)) || len(st.Lowers) != 0 {
		t.Errorf("enumeration: step bounds lowers=%v uppers=%v, want uppers=[1]", st.Lowers, st.Uppers)
	}
	for d := 2; d <= 3; d++ {
		if len(prog.Levels[d].Uppers) != 0 {
			t.Errorf("enumeration: level %d keeps uppers %v the step already applied", d, prog.Levels[d].Uppers)
		}
	}
	if !same(prog.Levels[3].Lowers, pos(2)) {
		t.Errorf("enumeration: level 3 lowers = %v, want [2]", prog.Levels[3].Lowers)
	}

	// Same restrictions under IEP with a one-loop suffix: position 3 becomes
	// an IEP set reading the same buffer, and the suffix's restrictions are
	// dropped (the IEP scaling corrects for them) — so the buffer must stay
	// unbounded and loop 2 keeps its window.
	prog = lowerDiamond(t, 1, lowers, uppers)
	st = prog.Levels[1].Steps[0]
	if len(st.Uppers)+len(st.Lowers) != 0 {
		t.Errorf("IEP: step bounds lowers=%v uppers=%v, want none (an IEP set reads the buffer)", st.Lowers, st.Uppers)
	}
	if !same(prog.Levels[2].Uppers, pos(1)) || !prog.Levels[2].AtCut {
		t.Errorf("IEP: level 2 uppers = %v atCut=%v, want the full window [1] at the cut", prog.Levels[2].Uppers, prog.Levels[2].AtCut)
	}

	// Loops that disagree share nothing.
	prog = lowerDiamond(t, 0, nil, [][]uint8{nil, nil, pos(1), pos(0)})
	st = prog.Levels[1].Steps[0]
	if len(st.Uppers)+len(st.Lowers) != 0 {
		t.Errorf("disagreeing loops: step bounds lowers=%v uppers=%v, want none", st.Lowers, st.Uppers)
	}
	if !same(prog.Levels[2].Uppers, pos(1)) || !same(prog.Levels[3].Uppers, pos(0)) {
		t.Errorf("disagreeing loops: residual windows %v / %v changed", prog.Levels[2].Uppers, prog.Levels[3].Uppers)
	}
}

// TestLowerBoundsChains: K5 under the total order v0 > v1 > ... > v4, spelled
// the way the planner spells it — one restriction per loop, against its
// predecessor — chains three buffers, each the next one's left operand. The
// loops' direct windows share no position, but transitively every consumer
// of every buffer lies below all earlier vertices: each step must carry the
// bounds bound by its own depth and no loop past depth 1 may have anything
// left to narrow, which is what the clique kernel does by construction.
// Under IEP the last loop becomes an unwindowed IEP set at the end of the
// chain, so nothing may be bounded at all.
func TestLowerBoundsChains(t *testing.T) {
	uppers := [][]uint8{nil, {0}, {1}, {2}, {3}}
	spec := codegen.Spec{N: 5, Plan: schedule.BuildPlan(pattern.Clique(5), 5), Uppers: uppers}
	prog, err := codegen.Lower(spec)
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d < 4; d++ {
		if len(prog.Levels[d].Steps) != 1 {
			t.Fatalf("depth %d hosts %d steps, want 1", d, len(prog.Levels[d].Steps))
		}
		st := prog.Levels[d].Steps[0]
		if len(st.Uppers) != d+1 || len(st.Lowers) != 0 {
			t.Errorf("step at depth %d applies lowers %v uppers %v, want uppers 0..%d", d, st.Lowers, st.Uppers, d)
		}
	}
	for d := 2; d < 5; d++ {
		if lv := prog.Levels[d]; len(lv.Uppers)+len(lv.Lowers) != 0 {
			t.Errorf("level %d keeps a residual window %v/%v", d, lv.Lowers, lv.Uppers)
		}
	}
	if got := prog.Levels[1].Uppers; string(got) != string([]uint8{0}) {
		t.Errorf("level 1 scans a neighbourhood and must keep its window, got %v", got)
	}

	spec.KIEP, spec.IEPNum, spec.IEPDen = 1, 1, 5
	prog, err = codegen.Lower(spec)
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d < 4; d++ {
		if st := prog.Levels[d].Steps[0]; len(st.Uppers)+len(st.Lowers) != 0 {
			t.Errorf("IEP: step at depth %d is bounded (%v/%v) though the chain ends in an IEP set", d, st.Lowers, st.Uppers)
		}
	}
	if got := prog.Levels[3].Uppers; string(got) != string([]uint8{2}) {
		t.Errorf("IEP: level 3 residual uppers %v, want its full window [2]", got)
	}
}

// TestLowerBoundsThroughLaterPosition: a bound may be implied through a
// position bound later than the consumer. In the diamond, v2 < v3 and
// v3 < v0 put loop 2's candidates below v0 although no restriction says so
// directly; loop 3 is below v0 directly, so the shared buffer is bounded by
// position 0 and only loop 3 loses a bound from its own window.
func TestLowerBoundsThroughLaterPosition(t *testing.T) {
	prog := lowerDiamond(t, 0, [][]uint8{nil, nil, nil, {2}}, [][]uint8{nil, nil, nil, {0}})
	st := prog.Levels[1].Steps[0]
	if string(st.Uppers) != string([]uint8{0}) || len(st.Lowers) != 0 {
		t.Errorf("step bounds lowers=%v uppers=%v, want uppers=[0]", st.Lowers, st.Uppers)
	}
	if lv := prog.Levels[3]; len(lv.Uppers) != 0 || string(lv.Lowers) != string([]uint8{2}) {
		t.Errorf("level 3 residual %v/%v, want lowers [2] only", lv.Lowers, lv.Uppers)
	}
}

// TestLowerRejectsDeadBuffer: the empty-set cut is exact only because every
// buffer feeds a loop or an IEP set, so Lower refuses a plan where one does
// not.
func TestLowerRejectsDeadBuffer(t *testing.T) {
	plan := schedule.BuildPlan(pattern.Triangle(), 3)
	plan.Cand[2] = schedule.Candidate{Kind: schedule.CandNeighborhood, Parent: 0, NumParents: 1}
	if _, err := codegen.Lower(codegen.Spec{N: 3, Plan: plan}); err == nil {
		t.Error("Lower accepted a plan whose buffer nothing consumes")
	}
}

// TestKernelIDsMatchTelemetry pins the identity executors rely on when they
// hand vertexset.IntersectWindow's kernel straight to LevelStats.Intersect.
func TestKernelIDsMatchTelemetry(t *testing.T) {
	if int(vertexset.KernelMerge) != telemetry.KernelMerge ||
		int(vertexset.KernelGallop) != telemetry.KernelGallop ||
		int(vertexset.KernelBitmap) != telemetry.KernelBitmap {
		t.Fatal("vertexset.Kernel values diverge from telemetry's kernel-family indices")
	}
}

// TestGeneratedProgramMatchesEngine compiles the generated program with the
// host toolchain and compares its output with the interpreted engine and
// the brute-force oracle — the full Figure-3 pipeline (configuration → code
// generation → compilation → execution). Cycle6Tri's restriction set is
// not a total order, so its loops keep bounds on only some positions.
func TestGeneratedProgramMatchesEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the host go toolchain")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	g := graph.BarabasiAlbert(150, 4, 77)
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.txt")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cyc := pattern.Cycle6Tri()
	for _, p := range []*pattern.Pattern{pattern.Triangle(), pattern.House(), pattern.Rectangle(), cyc} {
		cfg := configFor(t, p)
		want := cfg.Bind(false, core.TierAuto).Count(g, core.RunOptions{Workers: 1})
		if oracle := baseline.BruteForceCount(g, p); want != oracle || want == 0 {
			t.Fatalf("%s: engine counted %d, brute force %d (want equal and nonzero)", p, want, oracle)
		}
		if p == cyc && len(cfg.Restrictions) >= p.N()-1 {
			t.Fatalf("%s: restriction set %s may be a total order", p, cfg.Restrictions)
		}

		src, err := codegen.GenerateSource(cfg.SourceSpec())
		if err != nil {
			t.Fatal(err)
		}
		pkgDir := filepath.Join(dir, "gen-"+p.Name())
		if err := os.MkdirAll(pkgDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pkgDir, "main.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pkgDir, "go.mod"),
			[]byte("module genpattern\n\ngo 1.24\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		bin := filepath.Join(pkgDir, "matcher")
		build := exec.Command(goBin, "build", "-o", bin, ".")
		build.Dir = pkgDir
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("%s: generated code does not compile: %v\n%s\n--- source ---\n%s",
				p, err, out, src)
		}
		out, err := exec.Command(bin, graphPath).Output()
		if err != nil {
			t.Fatalf("%s: generated binary failed: %v", p, err)
		}
		got, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			t.Fatalf("%s: bad output %q", p, out)
		}
		if got != want {
			t.Errorf("%s: generated binary counted %d, engine and brute force %d", p, got, want)
		}
	}
}

// TestLowerMemoisesInvariantSteps pins markInvariant on the configurations the
// planner picks for the harness's BA(30k,8) queries: exactly Cycle6Tri's
// N(v0)∩N(v2) and ref-p4's N(v1)∩N(v3) are loop-invariant, in the enumeration
// nest and in the IEP nest alike.
func TestLowerMemoisesInvariantSteps(t *testing.T) {
	refP4, err := pattern.ParseAdjacency(6, "011110101011110010100001111000010100", "ref-p4")
	if err != nil {
		t.Fatal(err)
	}
	// set(a, b, c, d) is {id(a)>id(b), id(c)>id(d)}.
	set := func(pairs ...uint8) (rs restrict.Set) {
		for i := 0; i+1 < len(pairs); i += 2 {
			rs = append(rs, restrict.Restriction{First: pairs[i], Second: pairs[i+1]})
		}
		return rs
	}
	identity := func(n int) schedule.Schedule {
		s := schedule.Schedule{Order: make([]uint8, n)}
		for i := range s.Order {
			s.Order[i] = uint8(i)
		}
		return s
	}
	for _, tc := range []struct {
		name  string
		p     *pattern.Pattern
		sched schedule.Schedule
		rs    restrict.Set
		want  string // marked steps as depth:left-parent:context
	}{
		{"cycle6tri", pattern.Cycle6Tri(), identity(6), set(1, 2), "2:0:[0]"},
		{"ref-p4", refP4, identity(6), set(0, 1, 2, 4), "3:1:[1]"},
		{"house", pattern.House(), identity(5), set(0, 1), ""},
		// Its window reads v1, the loop between the operands and the key.
		{"rectangle", pattern.Rectangle(), identity(4), set(0, 2, 1, 0, 1, 3), ""},
		{"rectangle-mirror", pattern.Rectangle(), identity(4), set(2, 0, 0, 1, 3, 1), ""},
		// Their key loops scan a neighbourhood bound below the context.
		{"pentagon", pattern.Pentagon(), identity(5), set(0, 1, 2, 0, 3, 1, 4, 1), ""},
		{"k23", pattern.P4(), schedule.Schedule{Order: []uint8{0, 2, 1, 3, 4}}, set(0, 1, 2, 3, 3, 4), ""},
		{"k4", pattern.Clique(4), identity(4), set(0, 1, 1, 2, 2, 3), ""},
	} {
		cfg, err := core.NewConfig(tc.p, tc.sched, tc.rs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		specs := []codegen.Spec{cfg.SourceSpec()}
		if k := cfg.KIEP(); k > 0 {
			spec := cfg.SourceSpec()
			spec.KIEP, spec.IEPNum, spec.IEPDen = k, cfg.IEPNumerator(), cfg.IEPDivisor()
			specs = append(specs, spec)
		}
		src, err := codegen.GenerateSource(cfg.SourceSpec())
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(src, "// loop-invariant"); got != strings.Count(tc.want, ":[") {
			t.Errorf("%s: generated source has %d loop-invariant comments, want one per memoised step", tc.name, got)
		}
		for _, spec := range specs {
			prog, err := codegen.Lower(spec)
			if err != nil {
				t.Fatalf("%s (KIEP %d): %v", tc.name, spec.KIEP, err)
			}
			var got []string
			for _, lv := range prog.Levels {
				for _, st := range lv.Steps {
					if st.Memo != nil {
						got = append(got, fmt.Sprintf("%d:%d:%v", st.Depth, st.LeftParent, st.Memo))
					}
				}
			}
			if g := strings.Join(got, " "); g != tc.want {
				t.Errorf("%s (KIEP %d): memoised steps %q, want %q", tc.name, spec.KIEP, g, tc.want)
			}
		}
	}
}

// TestLowerMarksRows pins markRows: exactly the steps whose left operand is
// N(v0) or N(v1) name that position as their row, in the enumeration nest
// and in the IEP nest alike, and a step reading a buffer never does.
func TestLowerMarksRows(t *testing.T) {
	tailed, err := pattern.ParseAdjacency(5, "0100010100010110010100110", "tailed-triangle")
	if err != nil {
		t.Fatal(err)
	}
	identity := func(n int) schedule.Schedule {
		s := schedule.Schedule{Order: make([]uint8, n)}
		for i := range s.Order {
			s.Order[i] = uint8(i)
		}
		return s
	}
	for _, tc := range []struct {
		name  string
		p     *pattern.Pattern
		sched schedule.Schedule
		want  string // every step as depth:left:row, left "b<i>" for buffer i
	}{
		{"rectangle", pattern.Rectangle(), identity(4), "2:0:0"},
		{"house", pattern.House(), identity(5), "1:0:0 2:1:1"},
		{"cycle6tri", pattern.Cycle6Tri(), identity(6), "1:0:0 2:0:0 2:1:1"},
		{"k4", pattern.Clique(4), identity(4), "1:0:0 2:b0:-1"},
		{"k23", pattern.P4(), schedule.Schedule{Order: []uint8{0, 2, 1, 3, 4}}, "2:0:0"},
		// A triangle hanging off v2: its step reads N(v2), too deep for a row.
		{"tailed-triangle", tailed, identity(5), "3:2:-1"},
	} {
		cfg, err := core.NewConfig(tc.p, tc.sched, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		specs := []codegen.Spec{cfg.SourceSpec()}
		if k := cfg.KIEP(); k > 0 {
			spec := cfg.SourceSpec()
			spec.KIEP, spec.IEPNum, spec.IEPDen = k, cfg.IEPNumerator(), cfg.IEPDivisor()
			specs = append(specs, spec)
		}
		for _, spec := range specs {
			prog, err := codegen.Lower(spec)
			if err != nil {
				t.Fatalf("%s (KIEP %d): %v", tc.name, spec.KIEP, err)
			}
			var got []string
			for _, lv := range prog.Levels {
				for _, st := range lv.Steps {
					left := fmt.Sprint(st.LeftParent)
					if st.LeftBuf >= 0 {
						left = fmt.Sprintf("b%d", st.LeftBuf)
					}
					got = append(got, fmt.Sprintf("%d:%s:%d", st.Depth, left, st.Row))
				}
			}
			if g := strings.Join(got, " "); g != tc.want {
				t.Errorf("%s (KIEP %d): steps %q, want %q", tc.name, spec.KIEP, g, tc.want)
			}
		}
	}
}
