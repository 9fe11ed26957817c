package codegen

import (
	"slices"
	"testing"

	"graphpi/internal/pattern"
	"graphpi/internal/schedule"
)

// TestExclusionWindowTurnsAlwaysIntoProbe: a triangle 0-1-2 with vertex 3 on
// the edge 0-1 and vertex 4 hanging off 2. Under a two-loop IEP suffix, set 0
// is the buffer N(v0) ∩ N(v1) — shared with loop 2 — and set 1 is N(v2).
// Position 2 neighbours both 0 and 1, so v2 lies in set 0 in every embedding,
// and positions 0 and 1 neighbour 2, so they lie in set 1; every other pair
// is impossible. "Always" holds only because the buffer carries no window
// (DESIGN §9: a buffer an IEP set reads stays unbounded); a hand-built program
// whose step does window it must be probed instead.
func TestExclusionWindowTurnsAlwaysIntoProbe(t *testing.T) {
	p := pattern.MustNew(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {2, 4}}, "tri-ears")
	prog, err := Lower(Spec{
		N: 5, Plan: schedule.BuildPlan(p, 5),
		Uppers: [][]uint8{nil, {0}, {1}},
		KIEP:   2, IEPNum: 1, IEPDen: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prog.IEPCut != 2 || prog.IEP[0].Buf != 0 || prog.IEP[1].Parent != 2 {
		t.Fatalf("fixture: cut %d, IEP sources %+v", prog.IEPCut, prog.IEP)
	}
	st := &prog.Levels[1].Steps[0]
	if len(st.Lowers)+len(st.Uppers) != 0 {
		t.Fatalf("Lower windowed the buffer an IEP set reads: %v/%v", st.Lowers, st.Uppers)
	}
	want := []IEPExclusion{{Pos: 0, Always: 2}, {Pos: 1, Always: 2}, {Pos: 2, Always: 1}}
	if !slices.Equal(prog.IEPExclude, want) {
		t.Fatalf("IEPExclude = %+v, want %+v", prog.IEPExclude, want)
	}

	st.Uppers = []uint8{0}
	prog.classifyExclusions()
	want[2] = IEPExclusion{Pos: 2, Probe: 1}
	if !slices.Equal(prog.IEPExclude, want) {
		t.Errorf("windowed buffer: IEPExclude = %+v, want %+v", prog.IEPExclude, want)
	}
}
