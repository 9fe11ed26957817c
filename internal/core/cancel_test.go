package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// cancelFixture returns a graph and compiled configuration whose full count
// takes long enough that a cancelled run's promptness is measurable.
func cancelFixture(t testing.TB) (*graph.Graph, *Config) {
	t.Helper()
	g := graph.BarabasiAlbert(6000, 8, 7)
	return g, planFor(t, g, pattern.House())
}

func TestCountCtxCancelStopsPromptly(t *testing.T) {
	g, cfg := cancelFixture(t)

	// Uncancelled baseline: the full search must be much slower than the
	// cancelled run below, otherwise the test proves nothing.
	t0 := time.Now()
	want := cfg.Bind(false, TierAuto).Count(g, RunOptions{Workers: 2})
	full := time.Since(t0)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	t0 = time.Now()
	n, err := cfg.Bind(false, TierAuto).Run(ctx, g, RunOptions{Workers: 2})
	elapsed := time.Since(t0)
	if err == nil {
		t.Skip("search finished before the cancel fired; fixture too small for this machine")
	}
	if err != context.Canceled {
		t.Fatalf("CountCtx error = %v, want context.Canceled", err)
	}
	if n < 0 || n > want {
		t.Fatalf("partial tally %d outside [0, %d]", n, want)
	}
	// The workers observe cancellation at outer-loop boundaries, well
	// inside a single chunk; allow generous scheduler slack but require
	// the cancelled run to beat the full search decisively.
	if elapsed >= full {
		t.Fatalf("cancelled run took %v, full search takes %v — cancel did not stop the workers", elapsed, full)
	}
}

func TestCountCtxAlreadyCancelled(t *testing.T) {
	g, cfg := cancelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := cfg.Bind(true, TierAuto).Run(ctx, g, RunOptions{Workers: 1})
	if err != context.Canceled {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if n != 0 {
		t.Fatalf("pre-cancelled count = %d, want 0", n)
	}
}

func TestCountCtxCompleteMatchesCount(t *testing.T) {
	g := graph.BarabasiAlbert(400, 5, 11)
	cfg := planFor(t, g, pattern.House())
	want := cfg.Bind(true, TierAuto).Count(g, RunOptions{Workers: 2})
	checkArms(t, "house", g, cfg, want, axes{entry: []entry{viaRun, viaEnumerate}, iep: on, workers: []int{2}}.arms())
}

func TestEnumerateCtxCancelStopsVisits(t *testing.T) {
	g, cfg := cancelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	var visits atomic.Int64
	// Each visit sleeps, modeling a streaming client; the context watcher's
	// wake-up latency is then far smaller than one visit, so after cancel
	// each worker reports at most the visit already in flight.
	n, err := cfg.Enumerate(ctx, g, RunOptions{Workers: 2}, func([]uint32) bool {
		if visits.Add(1) == 20 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return true
	})
	if err != context.Canceled {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if n > 200 {
		t.Fatalf("enumerate visited %d embeddings after cancel at 20", n)
	}
}

func TestCountCtxBudgetAbort(t *testing.T) {
	g, cfg := cancelFixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	n, err := cfg.Bind(false, TierAuto).Run(ctx, g, RunOptions{Workers: 1})
	if err == nil {
		t.Skip("search finished inside the deadline; fixture too small for this machine")
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("deadline-aborted CountCtx error = %v, want context.DeadlineExceeded", err)
	}
	if n < 0 {
		t.Fatalf("negative partial tally %d", n)
	}
}

// TestCounterStop: a Counter whose stop flag is already set tallies nothing,
// on the interpreter (House) and on the clique kernel (K4) alike.
func TestCounterStop(t *testing.T) {
	g, house := cancelFixture(t)
	var stop atomic.Bool
	stop.Store(true)
	for _, cfg := range []*Config{house, cliqueConfig(t, 4)} {
		b := cfg.Bind(false, TierAuto)
		c := NewCounter(b, g, &stop)
		c.CountRange(0, b.taskSpace(g))
		if c.Raw() != 0 {
			t.Fatalf("%s: stopped counter tallied %d, want 0", cfg.Pattern, c.Raw())
		}
	}
}

// TestRunCancelReturnsCtxErr: a context cancelled before a run, or while it
// runs, makes Bound.Run on either executor and Config.Enumerate return
// ctx.Err(). A run cancelled before it starts tallies nothing.
func TestRunCancelReturnsCtxErr(t *testing.T) {
	g, house := cancelFixture(t)
	dense, k6 := graph.GNP(600, 0.3, 1), cliqueConfig(t, 6)
	opt := RunOptions{Workers: 2}
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context, cancel func()) (int64, error)
	}{
		{"interpreter", func(ctx context.Context, _ func()) (int64, error) {
			return house.Bind(false, TierInterpret).Run(ctx, g, opt)
		}},
		{"clique kernel", func(ctx context.Context, _ func()) (int64, error) {
			return k6.Bind(false, TierGenerated).Run(ctx, dense, opt)
		}},
		{"enumerate", func(ctx context.Context, cancel func()) (int64, error) {
			var visits atomic.Int64
			return house.Enumerate(ctx, g, opt, func([]uint32) bool {
				if visits.Add(1) == 100 {
					cancel()
				}
				return true
			})
		}},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if n, err := tc.run(ctx, cancel); err != context.Canceled || n != 0 {
			t.Errorf("%s, cancelled before: %d, %v; want 0, context.Canceled", tc.name, n, err)
		}
		// Each count run takes over 50 times the deadline (House on the
		// fixture, K6 on the dense graph); enumeration cancels itself from
		// its 100th visit.
		ctx, cancel = context.WithTimeout(context.Background(), 2*time.Millisecond)
		n, err := tc.run(ctx, cancel)
		if want := ctx.Err(); err == nil || err != want {
			t.Errorf("%s, cancelled during: %d, %v; want ctx.Err() = %v", tc.name, n, err, want)
		}
		cancel()
	}
}
