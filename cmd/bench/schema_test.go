package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// repoRoot is where the tests find BENCHMARK.json and the sources the
// surface probe parses.
const repoRoot = "../.."

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	var bench benchmarkFile
	if err := readJSON(filepath.Join(repoRoot, "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bench.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", bench.Workloads, workloads)
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", bench.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", bench.PerLayer, perLayer)
	}
	if bench.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, want %d", bench.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bench.Paths, []string{"cmd/bench"}) {
		t.Errorf("paths = %v", bench.Paths)
	}
}

// The limits the driver refuses a BENCHMARK.json over.
func TestSchemaWithinContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, m := range endToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		use(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}

func TestRowRoundTrip(t *testing.T) {
	for _, w := range []row{
		{Workload: "cyclic-ba", Metric: "solve_s", Value: 2.0814562319, Unit: "s", N: 5, Q1: 1.96, Q3: 2.14},
		{Workload: "plan-cold", Metric: "latency_p99_ms", Value: 467.5, Unit: "ms", N: 5, Q1: 450, Q3: 476, Note: "p99 unresolved"},
		{Workload: "service-mix", Metric: "peak_rss_mb", Value: 29.5, Unit: "MB", N: 1, Q1: 29.5, Q3: 29.5},
	} {
		got, ok := parseRow(w.String())
		if !ok || got != w {
			t.Errorf("parseRow(%q) = %+v, %v; want %+v", w.String(), got, ok, w)
		}
	}
	if _, ok := parseRow("cluster worker: 127.0.0.1:1 joined"); ok {
		t.Error("parsed a log line as a row")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "solve_s", Better: "lower", Bound: 0.08}
	higher := endToEnd[len(endToEnd)-1] // ok_ratio
	tight := func(v float64) row { return row{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	for _, c := range []struct {
		name string
		a, b row
		d    metricDef
		want string
	}{
		{"same", tight(2), tight(2.1), lower, "ok"},
		{"faster", tight(2), tight(1), lower, "ok"},
		{"slower", tight(2), tight(2.2), lower, "worse"},
		{"noisy", row{Value: 2, Q1: 1.8, Q3: 2.2}, tight(2.05), lower, "unresolved"},
		{"one failure in 12000", row{Value: 1, Q1: 1, Q3: 1}, row{Value: 11999.0 / 12000, Q1: 1, Q3: 1}, higher, "worse"},
		{"no failures", row{Value: 1, Q1: 1, Q3: 1}, row{Value: 1, Q1: 1, Q3: 1}, higher, "ok"},
	} {
		if got, _ := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	bench := filepath.Join(repoRoot, "BENCHMARK.json")
	dir := t.TempDir()
	write := func(name string, solve float64) string {
		var res resultFile
		for _, wl := range workloads {
			for _, m := range endToEnd {
				v := 1.0
				if m.Name == "solve_s" && wl.Name == "cyclic-ba" {
					v = solve
				}
				res.Rows = append(res.Rows, row{Workload: wl.Name, Metric: m.Name, Value: v, Unit: m.Unit, N: 5, Q1: v, Q3: v})
			}
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 2), write("same.json", 2.05), write("slow.json", 2.7)
	var out bytes.Buffer
	if code := compareFiles(&out, bench, a, same); code != 0 {
		t.Errorf("equal runs: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, bench, a, slow); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("35%% slower solve_s: exit %d\n%s", code, out.String())
	}
}
