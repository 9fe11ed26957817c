// Command benchgate turns a CI benchmark artifact from an upload-only
// trajectory record into a regression gate. It reads a freshly produced
// overhead report (servicebench -profile's BENCH_pr9.json shape:
// "overhead_fraction" and "pass") and fails (exit 1, one line per violation)
// when the report is missing its fraction, failed its own budget, or exceeds
// -max-overhead.
//
// Run with:
//
//	go run ./cmd/benchgate -fresh /tmp/BENCH_pr9.json -max-overhead 0.03
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// gateReport holds the bench report fields the gate reads; the producer's
// extra fields pass through unharmed.
type gateReport struct {
	Bench            string   `json:"bench"`
	OverheadFraction *float64 `json:"overhead_fraction"`
	Pass             *bool    `json:"pass"`
}

// compare returns one violation string per failure; an empty slice means the
// gate passes.
func compare(fresh gateReport, maxOverhead float64) []string {
	if fresh.OverheadFraction == nil {
		return []string{"overhead_fraction missing from the fresh report"}
	}
	var violations []string
	if *fresh.OverheadFraction > maxOverhead {
		violations = append(violations,
			fmt.Sprintf("overhead fraction %.4f exceeds the %.4f budget", *fresh.OverheadFraction, maxOverhead))
	}
	if fresh.Pass != nil && !*fresh.Pass {
		violations = append(violations, "fresh report failed its own budget (pass=false)")
	}
	return violations
}

func readReport(path string) (gateReport, error) {
	var r gateReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func main() {
	var (
		freshPath   = flag.String("fresh", "", "freshly produced overhead report (required)")
		maxOverhead = flag.Float64("max-overhead", 0.03, "overhead_fraction budget")
	)
	flag.Parse()

	if *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -fresh is required")
		os.Exit(2)
	}
	fresh, err := readReport(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if violations := compare(fresh, *maxOverhead); len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %s regressed:\n", *freshPath)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "  -", v)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: %s ok (overhead %.4f, budget %.4f)\n", fresh.Bench, *fresh.OverheadFraction, *maxOverhead)
}
