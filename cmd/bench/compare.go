package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the root BENCHMARK.json: the bounds -compare applies.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one (workload, end-to-end metric) pair of two runs, a the
// earlier. "unresolved" means a run's own spread (interquartile distance of
// its per-pass values over their median) is wider than the bound, so a
// difference of that size cannot be told from noise; it is not "ok". ok_ratio
// has no spread and a bound below one failure per run, so any increase in
// failures reads "worse".
func verdict(a, b row, d metricDef) (string, float64) {
	worse := (b.Value - a.Value) / math.Abs(a.Value)
	if d.Better == "higher" {
		worse = -worse
	}
	rel := func(w row) float64 {
		if w.Value == 0 {
			return 0
		}
		return (w.Q3 - w.Q1) / math.Abs(w.Value)
	}
	switch {
	case math.Max(rel(a), rel(b)) > d.Bound:
		return "unresolved", worse
	case worse > d.Bound:
		return "worse", worse
	}
	return "ok", worse
}

// compareFiles applies the bounds of the BENCHMARK.json at benchPath to two
// -out files and prints one line per (workload, end-to-end metric). It
// returns 0 when every pair is ok, 1 otherwise.
func compareFiles(out io.Writer, benchPath, pathA, pathB string) int {
	var bench benchmarkFile
	var a, b resultFile
	for _, f := range []struct {
		path string
		into any
	}{{benchPath, &bench}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	gating := a.GraphFile == "" && b.GraphFile == ""
	index := func(f resultFile) map[[2]string]row {
		m := map[[2]string]row{}
		for _, w := range f.Rows {
			m[[2]string{w.Workload, w.Metric}] = w
		}
		return m
	}
	rowsA, rowsB := index(a), index(b)
	status := 0
	for _, wl := range bench.Workloads {
		for _, d := range bench.EndToEnd {
			ra, okA := rowsA[[2]string{wl.Name, d.Name}]
			rb, okB := rowsB[[2]string{wl.Name, d.Name}]
			if !okA || !okB {
				if gating {
					fmt.Fprintf(out, "%-17s %-15s missing\n", wl.Name, d.Name)
					status = 1
				}
				continue
			}
			v, worse := verdict(ra, rb, d)
			if !gating {
				v = "non-gating"
			} else if v != "ok" {
				status = 1
			}
			fmt.Fprintf(out, "%-17s %-15s %-10s %12.6g -> %-12.6g %+6.1f%% worse (bound %.4g%%)\n",
				wl.Name, d.Name, v, ra.Value, rb.Value, 100*worse, 100*d.Bound)
		}
	}
	return status
}
