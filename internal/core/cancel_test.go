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
	res, err := Plan(pattern.House(), g.Stats(), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g, res.Best
}

func TestCountCtxCancelStopsPromptly(t *testing.T) {
	g, cfg := cancelFixture(t)

	// Uncancelled baseline: the full search must be much slower than the
	// cancelled run below, otherwise the test proves nothing.
	t0 := time.Now()
	want := cfg.Count(g, RunOptions{Workers: 2})
	full := time.Since(t0)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	t0 = time.Now()
	n, err := cfg.CountCtx(ctx, g, RunOptions{Workers: 2})
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
	n, err := cfg.CountIEPCtx(ctx, g, RunOptions{Workers: 1})
	if err != context.Canceled {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if n != 0 {
		t.Fatalf("pre-cancelled count = %d, want 0", n)
	}
}

func TestCountCtxCompleteMatchesCount(t *testing.T) {
	g := graph.BarabasiAlbert(400, 5, 11)
	res, err := Plan(pattern.House(), g.Stats(), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Best
	want := cfg.CountIEP(g, RunOptions{Workers: 2})
	got, err := cfg.CountIEPCtx(context.Background(), g, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("CountIEPCtx = %d, CountIEP = %d", got, want)
	}
	gotEnum, err := cfg.EnumerateCtx(context.Background(), g, RunOptions{Workers: 2}, func([]uint32) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if gotEnum != want {
		t.Fatalf("EnumerateCtx visited %d, want %d", gotEnum, want)
	}
}

func TestEnumerateCtxCancelStopsVisits(t *testing.T) {
	g, cfg := cancelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	var visits atomic.Int64
	// Each visit sleeps, modeling a streaming client; the context watcher's
	// wake-up latency is then far smaller than one visit, so after cancel
	// each worker reports at most the visit already in flight.
	n, err := cfg.EnumerateCtx(ctx, g, RunOptions{Workers: 2}, func([]uint32) bool {
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
	n, err := cfg.CountCtx(ctx, g, RunOptions{Workers: 1})
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
		c := NewCounter(cfg, g, false, &stop)
		c.CountRange(0, g.NumVertices())
		c.CountEdgeRange(0, g.NumAdjSlots())
		if c.Raw() != 0 {
			t.Fatalf("%s: stopped counter tallied %d, want 0", cfg.Pattern, c.Raw())
		}
	}
}
