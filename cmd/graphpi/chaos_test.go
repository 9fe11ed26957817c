package main

// Chaos test: the acceptance gate for the elastic cluster data plane, driven
// through real OS processes rather than in-process goroutines. A 3-worker
// TCP cluster runs a distributed count; one worker is SIGKILLed mid-job, as
// soon as it reports acknowledging its first task, and the master must still
// report the exact count (its unacknowledged tasks are
// re-dealt to the survivors). The victim is then restarted *cold* — no
// -graph flag, no local snapshot — and a second job must succeed with the
// replacement pulling the fingerprint-verified snapshot from the master and
// running a share of the tasks.
//
// Set GRAPHPI_CHAOS_RACE=1 to build the worker/master binary with the race
// detector (the CI chaos job does).

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphpi"
)

func TestChaosWorkerSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test builds the binary and drives real processes")
	}
	bin := buildChaosBinary(t)

	// Shared snapshot and pattern. The kill waits for the victim's first
	// acknowledged task rather than for a timer, so it lands mid-job however
	// fast the count runs.
	dir := t.TempDir()
	snap := filepath.Join(dir, "chaos.bin")
	g := graphpi.GenerateBA(30000, 8, 7)
	if err := g.SaveBinary(snap); err != nil {
		t.Fatal(err)
	}
	plan, err := graphpi.NewPlan(g, graphpi.House())
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Count()

	// Three worker processes on ephemeral ports.
	workers := make([]*workerProc, 3)
	addrs := make([]string, 3)
	for i := range workers {
		workers[i] = startWorkerProc(t, bin, "-graph", snap, "-serve", "127.0.0.1:0")
		addrs[i] = workers[i].addr
	}

	// First job: SIGKILL the last worker once it has acknowledged a task,
	// while the master is mid-count.
	master := exec.Command(bin, "-graph", snap, "-pattern", "house",
		"-join", strings.Join(addrs, ","))
	var out bytes.Buffer
	master.Stdout, master.Stderr = &out, &out
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- master.Wait() }()
	finished := func(err error) {
		t.Fatalf("master finished before the kill — enlarge the fixture (err=%v)\n%s", err, out.String())
	}
	select {
	case err := <-done:
		finished(err)
	case <-workers[2].acked:
	case <-time.After(time.Minute):
		t.Fatalf("worker 2 acknowledged no task\n%s", out.String())
	}
	select {
	case err := <-done:
		finished(err)
	default:
	}
	if err := workers[2].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	t.Log("worker 2 SIGKILLed mid-job")
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("master did not recover from the kill: %v\n%s", err, out.String())
		}
	case <-time.After(3 * time.Minute):
		master.Process.Kill()
		t.Fatalf("master hung after the kill\n%s", out.String())
	}
	if got := parseCount(t, out.String()); got != want {
		t.Fatalf("count with SIGKILLed worker = %d, want %d\n%s", got, want, out.String())
	}

	// Replacement joins cold: same binary, no -graph. It must fetch the
	// snapshot from the next master and run tasks for that job.
	workers[2] = startWorkerProc(t, bin, "-serve", "127.0.0.1:0")
	addrs[2] = workers[2].addr
	out2, err := exec.Command(bin, "-graph", snap, "-pattern", "house",
		"-join", strings.Join(addrs, ",")).CombinedOutput()
	if err != nil {
		t.Fatalf("job with cold replacement worker: %v\n%s", err, out2)
	}
	if got := parseCount(t, string(out2)); got != want {
		t.Fatalf("count with cold replacement = %d, want %d\n%s", got, want, out2)
	}
	if tasks := parseNodeTasks(t, string(out2), 2); tasks == 0 {
		t.Fatalf("cold replacement worker ran no tasks\n%s", out2)
	}
}

// buildChaosBinary compiles cmd/graphpi into a temp dir (with -race when
// GRAPHPI_CHAOS_RACE=1) and returns the binary path.
func buildChaosBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "graphpi-chaos")
	args := []string{"build", "-o", bin}
	if os.Getenv("GRAPHPI_CHAOS_RACE") == "1" {
		args = append(args, "-race")
	}
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building chaos binary: %v\n%s", err, out)
	}
	return bin
}

// workerProc is one `graphpi -serve` OS process, its bound address, and a
// signal for each job in which it acknowledged its first task.
type workerProc struct {
	cmd   *exec.Cmd
	addr  string
	acked chan struct{}
}

var (
	servingRE = regexp.MustCompile(`cluster worker: serving .* on (\S+) \(`)
	ackedRE   = regexp.MustCompile(`cluster worker: .*acknowledged its first task`)
)

// startWorkerProc launches a worker process and waits until it prints its
// bound address. Its stderr is passed through, and scanned for the line the
// worker logs when it acknowledges its first task of a job. The process is
// killed at test cleanup.
func startWorkerProc(t *testing.T, bin string, args ...string) *workerProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	acked := make(chan struct{}, 1)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			fmt.Fprintln(os.Stderr, sc.Text())
			if ackedRE.MatchString(sc.Text()) {
				select {
				case acked <- struct{}{}:
				default:
				}
			}
		}
	}()
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	select {
	case addr := <-addrCh:
		return &workerProc{cmd: cmd, addr: addr, acked: acked}
	case <-time.After(30 * time.Second):
		t.Fatalf("worker %v did not report its address", args)
		return nil
	}
}

var countRE = regexp.MustCompile(`(?m)^count: (\d+) in `)

func parseCount(t *testing.T, out string) int64 {
	t.Helper()
	m := countRE.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no count line in master output:\n%s", out)
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func parseNodeTasks(t *testing.T, out string, node int) int64 {
	t.Helper()
	re := regexp.MustCompile(fmt.Sprintf(`node %d:\s*(\d+) tasks`, node))
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no task line for node %d in master output:\n%s", node, out)
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
