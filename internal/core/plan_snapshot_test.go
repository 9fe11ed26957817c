package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/pattern/patterntest"
)

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/plans.txt from the current planner")

// snapshotStats are the fixed statistics the snapshot is planned against
// (the shape of BA(30k,8), the plan-cold workload's graph).
var snapshotStats = graph.Stats{Vertices: 30000, Edges: 239964, Triangles: 17820, MaxDegree: 1021, AvgDegree: 15.9976}

// TestPlanSnapshot pins the planner's output — chosen schedule, restriction
// set and the predicted cost to the last bit — for P1–P6, reference p1–p5, the
// 4- and 5-vertex motifs and K7 on fixed statistics. An optimisation of the
// planner must leave every line of testdata/plans.txt unchanged; a deliberate
// change of plans regenerates it with -update-plans (and needs cmd/bench's
// goldens re-pinned as well).
func TestPlanSnapshot(t *testing.T) {
	var b strings.Builder
	for _, np := range patterntest.Suite(5) {
		res, err := Plan(np.Pat, snapshotStats, PlanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", np.Name, err)
		}
		fmt.Fprintf(&b, "%s | %s | %s | %016x\n", np.Name, res.Best.Schedule, res.Best.Restrictions, math.Float64bits(res.Best.Cost))
	}
	path := filepath.Join("testdata", "plans.txt")
	if *updatePlans {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("planned %d patterns, snapshot has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("plan changed:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

// TestPlanSharedPatternConcurrent plans one cold *Pattern from several
// goroutines at once, as concurrent cold requests for one cached pattern
// value would: what the planner memoises on the Pattern must be safe to
// reach that way, and every goroutine must get the same plan. Run under -race.
func TestPlanSharedPatternConcurrent(t *testing.T) {
	pat := pattern.Prism()
	const goroutines = 8
	keys := make([]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Plan(pat, snapshotStats, PlanOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			keys[i] = fmt.Sprintf("%s | %s | %016x", res.Best.Schedule, res.Best.Restrictions, math.Float64bits(res.Best.Cost))
		}()
	}
	wg.Wait()
	for i := range keys {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if keys[i] != keys[0] {
			t.Errorf("goroutine %d planned %s, goroutine 0 planned %s", i, keys[i], keys[0])
		}
	}
}
