package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tinyOpts keeps every experiment fast enough for CI; cells that exceed the
// budget legitimately report "T", as in the paper.
func tinyOpts() Options {
	return Options{
		Scale:        0.01,
		Workers:      4,
		CellBudget:   250 * time.Millisecond,
		MaxSchedules: 4,
	}
}

// skipSweepInShort keeps the table and figure sweeps — seconds each, a minute
// together — out of -short runs; the one-cell experiments still run there.
func skipSweepInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var buf bytes.Buffer
	res.Report(&buf)
	if !strings.Contains(buf.String(), "WikiVote-S") {
		t.Error("report missing dataset")
	}
}

func TestFig2b(t *testing.T) {
	res, err := Fig2b(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Combos) != 4 {
		t.Fatalf("combos = %d, want 4", len(res.Combos))
	}
	// All four combos count the same embeddings.
	var counts []int64
	for _, c := range res.Combos {
		if !c.Cell.TimedOut {
			counts = append(counts, c.Cell.Count)
		}
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Errorf("combo counts disagree: %v", counts)
		}
	}
	var buf bytes.Buffer
	res.Report(&buf)
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

func TestFig8(t *testing.T) {
	skipSweepInShort(t)
	res, err := Fig8(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 30 { // 6 patterns × 5 graphs
		t.Fatalf("cells = %d, want 30", len(res.Cells))
	}
	// Correctness: per cell, completed systems agree on the count.
	for _, c := range res.Cells {
		ref := int64(-1)
		for _, cell := range []Cell{c.GraphPi, c.GraphZero, c.Fractal} {
			if cell.TimedOut {
				continue
			}
			if ref < 0 {
				ref = cell.Count
			} else if cell.Count != ref {
				t.Errorf("%s/%s: counts disagree (%d vs %d)", c.Graph, c.Pattern, cell.Count, ref)
			}
		}
	}
	var buf bytes.Buffer
	res.Report(&buf)
	if !strings.Contains(buf.String(), "geomean") {
		t.Error("missing summary")
	}
}

func TestTable2(t *testing.T) {
	skipSweepInShort(t)
	res, err := Table2(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // 3 patterns × 2 graphs
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	var buf bytes.Buffer
	res.Report(&buf)
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

func TestFig9(t *testing.T) {
	skipSweepInShort(t)
	// Fig9 needs completed (non-"T") cells for its oracle, so it gets a
	// larger per-cell budget than the grid experiments.
	opt := tinyOpts()
	opt.CellBudget = 5 * time.Second
	opt.MaxSchedules = 3
	res, err := Fig9(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 || res.EliminatedCount == 0 {
		t.Errorf("generated %d eliminated %d", res.Generated, res.EliminatedCount)
	}
	var gpPicks, gzPicks int
	for _, pt := range res.Points {
		if pt.PickedByGraphPi {
			gpPicks++
			if pt.Eliminated {
				t.Error("GraphPi picked an eliminated schedule")
			}
		}
		if pt.PickedByGraphZero {
			gzPicks++
		}
	}
	if gpPicks != 1 || gzPicks == 0 {
		t.Errorf("picks: graphpi=%d graphzero=%d", gpPicks, gzPicks)
	}
	if res.GraphPiPick.Seconds <= 0 || res.Oracle.Seconds <= 0 {
		t.Error("missing pick/oracle cells")
	}
	var buf bytes.Buffer
	res.Report(&buf)
	if !strings.Contains(buf.String(), "GraphPi pick") {
		t.Error("report missing pick markers")
	}
}

func TestFig10(t *testing.T) {
	skipSweepInShort(t)
	res, err := Fig10(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 30 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	// Most configurations support IEP (the planner prefers them); a few
	// patterns may legitimately fall back (kIEP = 0) when no low-cost
	// configuration passes the exactness check.
	withIEP := 0
	for _, c := range res.Cells {
		if c.KIEP >= 1 {
			withIEP++
		}
	}
	if withIEP < len(res.Cells)/2 {
		t.Errorf("only %d/%d cells IEP-capable", withIEP, len(res.Cells))
	}
	var buf bytes.Buffer
	res.Report(&buf)
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

func TestFig11(t *testing.T) {
	skipSweepInShort(t)
	res, err := Fig11(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 { // 6 patterns × 2 graphs
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Selected.Seconds > 0 && row.Oracle.Seconds > 0 &&
			row.Selected.Seconds+1e-9 < row.Oracle.Seconds {
			t.Errorf("%s/%s: selected faster than oracle?", row.Graph, row.Pattern)
		}
	}
	var buf bytes.Buffer
	res.Report(&buf)
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

func TestFig12(t *testing.T) {
	skipSweepInShort(t)
	res, err := Fig12(tinyOpts(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// 6 Orkut patterns + 2 Twitter patterns, × 2 node counts.
	if len(res.Points) != 16 {
		t.Fatalf("points = %d, want 16", len(res.Points))
	}
	// Counts must be node-count independent.
	byKey := map[string]int64{}
	for _, pt := range res.Points {
		key := pt.Graph + "/" + pt.Pattern
		if prev, ok := byKey[key]; ok && prev != pt.Count {
			t.Errorf("%s: count differs across node counts", key)
		}
		byKey[key] = pt.Count
	}
	var buf bytes.Buffer
	res.Report(&buf)
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

func TestTable3(t *testing.T) {
	res, err := Table3(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Overhead <= 0 || row.Configurations <= 0 {
			t.Errorf("%s: empty row %+v", row.Pattern, row)
		}
	}
	var buf bytes.Buffer
	res.Report(&buf)
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

func TestRunByName(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(NameTable1, tinyOpts(), &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no output")
	}
	if err := Run("bogus", tinyOpts(), &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(Names()) != 9 {
		t.Errorf("Names = %v", Names())
	}
}

func TestCellString(t *testing.T) {
	c := Cell{Seconds: 1.5}
	if c.String() != "1.500s" {
		t.Errorf("String = %q", c.String())
	}
	to := Cell{Seconds: 2, TimedOut: true}
	if !strings.Contains(to.String(), "T") {
		t.Errorf("timeout String = %q", to.String())
	}
	if sp := (Cell{Seconds: 2}).Speedup(Cell{Seconds: 6}); sp != 3 {
		t.Errorf("Speedup = %v", sp)
	}
}
