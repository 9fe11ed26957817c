package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func f64(v float64) *float64 { return &v }
func b(v bool) *bool         { return &v }

// TestGateFailsOnSyntheticRegression is the gate's own acceptance test: a
// fresh report whose telemetry overhead jumped past the budget must produce a
// violation naming it — the scenario the gate exists to catch.
func TestGateFailsOnSyntheticRegression(t *testing.T) {
	regressed := gateReport{Bench: "pr9-telemetry-overhead", OverheadFraction: f64(0.08), Pass: b(true)}
	violations := compare(regressed, 0.03)
	if len(violations) != 1 {
		t.Fatalf("violations = %v, want exactly the overhead regression", violations)
	}
	if !strings.Contains(violations[0], "0.0800") {
		t.Fatalf("violation %q does not name the regressed fraction", violations[0])
	}
}

// TestGatePassesWithinThreshold: a fraction at the budget is not a
// regression.
func TestGatePassesWithinThreshold(t *testing.T) {
	if v := compare(gateReport{OverheadFraction: f64(0.03), Pass: b(true)}, 0.03); len(v) != 0 {
		t.Fatalf("violations = %v, want none", v)
	}
}

// TestGateFailsOnMissingKey: a report without its overhead fraction (a field
// rename in the producer) fails instead of passing as a no-op.
func TestGateFailsOnMissingKey(t *testing.T) {
	v := compare(gateReport{Bench: "x", Pass: b(true)}, 0.03)
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("violations = %v, want a missing-key violation", v)
	}
}

func TestGateOverheadReports(t *testing.T) {
	ok := gateReport{Bench: "pr9-telemetry-overhead", OverheadFraction: f64(0.009), Pass: b(true)}
	if v := compare(ok, 0.03); len(v) != 0 {
		t.Fatalf("passing overhead report: violations = %v", v)
	}
	over := gateReport{OverheadFraction: f64(0.05), Pass: b(true)}
	if v := compare(over, 0.03); len(v) != 1 {
		t.Fatalf("over-budget report: violations = %v, want one", v)
	}
	selfFailed := gateReport{OverheadFraction: f64(0.01), Pass: b(false)}
	if v := compare(selfFailed, 0.03); len(v) != 1 {
		t.Fatalf("pass=false report: violations = %v, want one", v)
	}
}

// TestGateAgainstCheckedInShapes parses the checked-in baseline (when present
// in the repo root) to pin that the gate's report struct matches the
// producer's format — a field rename in the bench would otherwise turn the
// gate red for the wrong reason — and that the baseline passes the gate.
func TestGateAgainstCheckedInShapes(t *testing.T) {
	const name = "BENCH_pr9.json"
	r, err := readReport(filepath.Join("..", "..", name))
	if err != nil {
		if os.IsNotExist(err) {
			t.Skipf("%s not checked in; skipping shape check", name)
		}
		t.Fatalf("%s: %v", name, err)
	}
	if v := compare(r, 0.03); len(v) != 0 {
		t.Errorf("%s does not pass the gate: %v", name, v)
	}
}

// TestReadReportRoundTrip pins JSON decoding through a temp file.
func TestReadReportRoundTrip(t *testing.T) {
	rep := gateReport{Bench: "x", OverheadFraction: f64(0.015), Pass: b(true)}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bench != "x" || got.OverheadFraction == nil || *got.OverheadFraction != 0.015 || got.Pass == nil || !*got.Pass {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := readReport(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file did not error")
	}
}
