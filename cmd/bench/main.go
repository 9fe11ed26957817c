// Command bench is the repository's one benchmark harness: six named
// workloads, six end-to-end metrics and per-module layer metrics, declared in
// BENCHMARK.json and registry.go and described in README.md.
//
//	go run ./cmd/bench                       # every workload, untraced then traced
//	go run ./cmd/bench -out a.json           # ... and keep the rows
//	go run ./cmd/bench -compare a.json b.json
//	go run ./cmd/bench -workload cyclic-ba -trace 1 -trace-out spans.ndjson
//	go run ./cmd/bench -workload clique-rmat -graph wiki-vote.txt
//
// Without -workload the driver runs the workloads one after another, each in
// its own child process of this binary, so peak_rss_mb and scheduler state
// are per workload. With -workload it is that child: it prints one
// "workload metric value unit n=samples" row per metric and, as its last
// line, the JSON object BENCHMARK.json's contract asks for. Every count,
// checksum and restriction set is verified; a wrong answer exits non-zero.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

// golden holds the expected answers on the graphs genSeed generates. Counts
// and checksums are invariant under the -seed relabelling;
// TestGoldenAnchoredToBruteForce ties the engine that produced them to an
// independent oracle.
type golden struct {
	GenSeed uint64 `json:"gen_seed"`
	// Motifs lists pattern.AllConnected(n) as adjacency strings, by n:
	// enumerating the 6-vertex motifs afresh costs every run five seconds.
	Motifs    map[int][]string  `json:"motifs"`
	Counts    map[string]int64  `json:"counts"`
	Checksums map[string]uint64 `json:"checksums"`
	Plans     map[string]string `json:"plans"`
}

// loadGolden parses the embedded golden.json, once.
var loadGolden = sync.OnceValue(func() golden {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("bench: golden.json: " + err.Error())
	}
	return g
})

// row is one reported metric. Q1 and Q3 are the quartiles of the per-pass
// values behind a median, which is what -compare calls the spread.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Note     string  `json:"note,omitempty"`
}

// run is the state of one workload run (one child process).
type run struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       bool
	graphFile   string
	writeGolden bool
	procs       int
	root        string // repository root, for the surface probe

	gold golden
	// oracle, when set (tests), replaces goldens and reference arms.
	oracle func(el edgeList, q query) int64
	refs   map[string]int64
	rec    *recorder

	mu        sync.Mutex
	attempted int
	failed    int
	rows      []row
}

// procs is P of the issue: min(nproc, 4) workers and closed-loop clients.
func procs() int { return min(runtime.NumCPU(), 4) }

// check counts one verified operation.
func (r *run) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: FAIL: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
}

// goldenApplies reports whether the inputs are the ones golden.json describes.
func (r *run) goldenApplies() bool {
	return r.oracle == nil && !r.writeGolden && r.graphFile == ""
}

// wantCount returns the expected count under key: the oracle's (tests), the
// golden when it applies, else ref() — an arm independent of the timed one
// (one worker, interpreter tier) — computed once.
func (r *run) wantCount(key string, el edgeList, q query, ref func() int64) int64 {
	if r.oracle != nil {
		return r.oracle(el, q)
	}
	if r.goldenApplies() {
		if v, ok := r.gold.Counts[key]; ok {
			return v
		}
		r.check(false, "no golden count for %s", key)
	}
	if v, ok := r.refs[key]; ok {
		return v
	}
	v := ref()
	r.refs[key] = v
	if r.writeGolden {
		r.gold.Counts[key] = v
	}
	return v
}

// summary is the row of a metric whose value is the median of samples.
func summary(metric string, samples []float64) row {
	q1, q3 := quartiles(samples)
	return row{Metric: metric, Value: median(samples), N: len(samples), Q1: q1, Q3: q3}
}

// put records a metric whose value is the median of samples.
func (r *run) put(metric string, samples []float64) { r.putRow(summary(metric, samples)) }

// put1 records a metric measured once (or a count).
func (r *run) put1(metric string, value float64) {
	r.putRow(row{Metric: metric, Value: value, N: 1, Q1: value, Q3: value})
}

func (r *run) putRow(w row) {
	w.Workload = r.workload
	w.Unit = metricUnit(w.Metric)
	if w.Unit == "" {
		panic("bench: undeclared metric " + w.Metric)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rows = append(r.rows, w)
}

func (w row) String() string {
	s := fmt.Sprintf("%s %s %s %s n=%d", w.Workload, w.Metric, strconv.FormatFloat(w.Value, 'g', -1, 64), w.Unit, w.N)
	if w.N > 1 {
		s += fmt.Sprintf(" q1=%s q3=%s", strconv.FormatFloat(w.Q1, 'g', -1, 64), strconv.FormatFloat(w.Q3, 'g', -1, 64))
	}
	if w.Note != "" {
		s += " # " + w.Note
	}
	return s
}

// parseRow is the inverse of row.String.
func parseRow(line string) (row, bool) {
	text, note, _ := strings.Cut(line, " # ")
	f := strings.Fields(text)
	if len(f) < 5 || !strings.HasPrefix(f[4], "n=") {
		return row{}, false
	}
	v, err1 := strconv.ParseFloat(f[2], 64)
	n, err2 := strconv.Atoi(f[4][2:])
	if err1 != nil || err2 != nil {
		return row{}, false
	}
	w := row{Workload: f[0], Metric: f[1], Value: v, Unit: f[3], N: n, Q1: v, Q3: v, Note: note}
	for _, kv := range f[5:] {
		if x, ok := strings.CutPrefix(kv, "q1="); ok {
			w.Q1, _ = strconv.ParseFloat(x, 64)
		}
		if x, ok := strings.CutPrefix(kv, "q3="); ok {
			w.Q3, _ = strconv.ParseFloat(x, 64)
		}
	}
	return w, true
}

// contractLine renders the last line of a child's output: exactly the keys
// correct, attempted, failed and metrics, and under metrics every declared
// metric of the mode (0 for one this workload does not measure).
func (r *run) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		metrics[d.Name] = mv{0, d.Unit}
	}
	for _, w := range r.rows {
		if _, ok := metrics[w.Metric]; ok {
			metrics[w.Metric] = mv{w.Value, w.Unit}
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(out)
}

func main() { os.Exit(realMain()) }

// options are the command line.
type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       int
	runs        int
	traceOut    string
	out         string
	graphFile   string
	writeGolden bool
}

func realMain() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in-process (default: all, one child process each)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "seeds vertex relabelling, sampled edges and request sequences")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measuring window of one run")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced (default: both in turn)")
	flag.IntVar(&o.runs, "runs", 1, "full run: untraced runs per workload, at seeds seed, seed+1, ...; rows are medians and quartiles over the runs")
	flag.StringVar(&o.traceOut, "trace-out", "", "append the traced phase's spans to this file as NDJSON")
	flag.StringVar(&o.out, "out", "", "write all rows of a full run to this JSON file (input of -compare)")
	flag.StringVar(&o.graphFile, "graph", "", "engine workloads: use this edge-list file instead of the generated graph (non-gating)")
	flag.BoolVar(&o.writeGolden, "write-golden", false, "recompute cmd/bench/golden.json from the reference arms")
	compare := flag.Bool("compare", false, "compare two -out files under BENCHMARK.json's bounds: -compare a.json b.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	case o.workload != "":
		return runOne(o)
	case o.writeGolden:
		return writeGoldenFile(o)
	}
	return runAll(o)
}

// runOne is the child: one workload in this process.
func runOne(o options) int {
	runtime.GOMAXPROCS(procs())
	r := &run{
		workload: o.workload, seed: o.seed, seconds: o.seconds,
		trace: o.trace == 1, graphFile: o.graphFile, writeGolden: o.writeGolden,
		procs: procs(), root: ".", refs: map[string]int64{}, gold: loadGolden(),
	}
	if r.writeGolden {
		r.gold = golden{Counts: map[string]int64{}, Checksums: map[string]uint64{}, Plans: map[string]string{}}
	}
	if r.trace {
		r.rec = newRecorder()
	}
	if err := r.execute(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", r.workload, err)
		return 1
	}
	if r.writeGolden {
		// The parent merges the children's goldens; hand ours over on stdout.
		data, err := json.Marshal(r.gold)
		if err != nil {
			panic(err)
		}
		fmt.Printf("golden %s\n", data)
	}
	if o.traceOut != "" && r.rec != nil {
		if err := r.rec.appendTo(o.traceOut, r.workload); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	for _, w := range r.rows {
		fmt.Println(w)
	}
	if r.graphFile != "" {
		fmt.Println("# non-gating: external graph", r.graphFile)
	}
	fmt.Println(r.contractLine())
	if r.failed > 0 {
		return 1
	}
	return 0
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Runs      int     `json:"runs"`
	Procs     int     `json:"procs"`
	NumCPU    int     `json:"nproc"`
	GraphFile string  `json:"graph_file,omitempty"` // set → non-gating
	When      string  `json:"when"`
	Rows      []row   `json:"rows"`
}

// child runs one workload in a child process of this binary.
func (o options) child(workload string, seed uint64, mode int) ([]row, *golden, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(mode),
	}
	if o.traceOut != "" {
		args = append(args, "-trace-out", o.traceOut)
	}
	if o.graphFile != "" {
		args = append(args, "-graph", o.graphFile)
	}
	if o.writeGolden {
		args = append(args, "-write-golden")
	}
	rows, gold, err := runChild(self, args)
	if err != nil {
		err = fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, mode, err)
	}
	return rows, gold, err
}

// runAll is the full run: every workload in its own child process, rows
// echoed as they arrive. Untraced first — o.runs rounds over the workloads, so
// a slow phase of the machine spreads over all of them instead of landing on
// one — then one traced run each.
func runAll(o options) int {
	if o.traceOut != "" {
		if err := os.WriteFile(o.traceOut, nil, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	var names []string
	for _, wl := range workloads {
		if o.graphFile == "" || isEngineWorkload(wl.Name) {
			names = append(names, wl.Name)
		}
	}
	res := resultFile{
		Seed: o.seed, Seconds: o.seconds, Runs: o.runs, Procs: procs(), NumCPU: runtime.NumCPU(),
		GraphFile: o.graphFile, When: time.Now().UTC().Format(time.RFC3339),
	}
	status := 0
	note := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			status = 1
		}
	}
	if o.trace != 1 {
		perRun := map[[2]string][]row{}
		for i := 0; i < o.runs; i++ {
			for _, name := range names {
				rows, _, err := o.child(name, o.seed+uint64(i), 0)
				note(err)
				for _, w := range rows {
					k := [2]string{w.Workload, w.Metric}
					perRun[k] = append(perRun[k], w)
				}
			}
		}
		for _, name := range names {
			for _, m := range endToEnd {
				if rows := perRun[[2]string{name, m.Name}]; len(rows) > 0 {
					res.Rows = append(res.Rows, overRuns(rows))
				}
			}
		}
		if o.runs > 1 {
			fmt.Printf("# median and quartiles over %d runs\n", o.runs)
			for _, w := range res.Rows {
				fmt.Println(w)
			}
		}
	}
	if o.trace != 0 {
		for _, name := range names {
			rows, _, err := o.child(name, o.seed, 1)
			note(err)
			res.Rows = append(res.Rows, rows...)
		}
	}
	if o.out != "" {
		note(writeJSON(o.out, res))
	}
	return status
}

// overRuns folds one metric's rows from several runs into one: the median of
// the runs' values with their quartiles, which is how the PR driver judges a
// metric. A single run keeps its own per-pass quartiles.
func overRuns(rows []row) row {
	if len(rows) == 1 {
		return rows[0]
	}
	values := make([]float64, len(rows))
	for i, w := range rows {
		values[i] = w.Value
	}
	w := summary(rows[0].Metric, values)
	w.Workload, w.Unit, w.Note = rows[0].Workload, rows[0].Unit, strings.TrimPrefix(rows[0].Note+"; over runs", "; ")
	return w
}

// writeGoldenFile recomputes golden.json: every workload's warm pass in write
// mode, merged.
func writeGoldenFile(o options) int {
	merged := golden{GenSeed: genSeed, Motifs: map[int][]string{}, Counts: map[string]int64{}, Checksums: map[string]uint64{}, Plans: map[string]string{}}
	for n := 4; n <= 6; n++ {
		merged.Motifs[n] = enumerateMotifs(n)
	}
	for _, wl := range workloads {
		_, gold, err := o.child(wl.Name, o.seed, 0)
		if err != nil || gold == nil {
			fmt.Fprintln(os.Stderr, "bench: no goldens from", wl.Name, err)
			return 1
		}
		for k, v := range gold.Counts {
			merged.Counts[k] = v
		}
		for k, v := range gold.Checksums {
			merged.Checksums[k] = v
		}
		for k, v := range gold.Plans {
			merged.Plans[k] = v
		}
	}
	if err := writeJSON("cmd/bench/golden.json", merged); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("wrote cmd/bench/golden.json")
	return 0
}

// runChild runs one workload child, echoes its output minus the contract
// line, and returns the rows it reported.
func runChild(self string, args []string) ([]row, *golden, error) {
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs()))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	var (
		rows []row
		gold *golden
	)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "{"):
			// the contract line; the rows above it carry the same numbers
		case strings.HasPrefix(line, "golden "):
			gold = new(golden)
			if err := json.Unmarshal([]byte(line[len("golden "):]), gold); err != nil {
				gold = nil
			}
		default:
			fmt.Println(line)
			if w, ok := parseRow(line); ok {
				rows = append(rows, w)
			}
		}
	}
	if _, err := io.Copy(io.Discard, stdout); err != nil {
		return rows, gold, err
	}
	return rows, gold, cmd.Wait()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
