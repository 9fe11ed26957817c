package core

import (
	"fmt"
	"testing"
	"time"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// plannedBuild is a planning run that plans p on g's statistics and skips
// the orientation step.
func plannedBuild(p *pattern.Pattern, g *graph.Graph) func() (*Config, Orientation, error) {
	return func() (*Config, Orientation, error) {
		res, err := Plan(p, g.Stats(), PlanOptions{})
		if err != nil {
			return nil, Orientation{}, err
		}
		return res.Best, Orientation{}, nil
	}
}

// TestPlanCacheLRUEviction drives the byte budget directly: distinct keys
// beyond the budget evict the least recently used, and an evicted key plans
// again on return.
func TestPlanCacheLRUEviction(t *testing.T) {
	g := graph.BarabasiAlbert(200, 4, 2)
	// Budget fits ~two house-sized entries (1024 + 64·25 + restrictions).
	c := &PlanCache[string]{budget: 6000}
	pats := []*pattern.Pattern{pattern.Triangle(), pattern.Rectangle(), pattern.House(), pattern.Pentagon()}
	for _, p := range pats {
		if _, _, _, err := c.get(nil, p.Name(), plannedBuild(p, g)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after overfilling: %+v", st)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("cache over budget: %+v", st)
	}
	// The oldest key was evicted: asking again must re-plan (a miss).
	before := c.Stats().Plans
	if _, _, hit, err := c.get(nil, "Triangle", plannedBuild(pattern.Triangle(), g)); err != nil || hit {
		t.Fatalf("evicted key returned hit=%v err=%v", hit, err)
	}
	if c.Stats().Plans != before+1 {
		t.Fatal("evicted key did not re-plan")
	}
	// The most recent key is still resident: a hit, no planning.
	before = c.Stats().Plans
	if _, _, hit, err := c.get(nil, "Pentagon", plannedBuild(pattern.Pentagon(), g)); err != nil || !hit {
		t.Fatalf("resident key returned hit=%v err=%v", hit, err)
	}
	if c.Stats().Plans != before {
		t.Fatal("resident key re-planned")
	}
}

// TestPlanCacheBuildErrorNotCached: a failed build must not poison the key.
func TestPlanCacheBuildErrorNotCached(t *testing.T) {
	var c PlanCache[string]
	boom := fmt.Errorf("boom")
	if _, _, _, err := c.get(nil, "x", func() (*Config, Orientation, error) {
		return nil, Orientation{}, boom
	}); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	g := graph.BarabasiAlbert(100, 3, 1)
	cfg, _, hit, err := c.get(nil, "x", plannedBuild(pattern.Triangle(), g))
	if err != nil || hit || cfg == nil {
		t.Fatalf("retry after failed build: cfg=%v hit=%v err=%v", cfg, hit, err)
	}
}

// TestPlanCachePanicSafe: a panicking build must not leave the entry
// in-flight (waiters would block forever, in the service holding admission
// slots); the key must be retryable afterwards.
func TestPlanCachePanicSafe(t *testing.T) {
	var c PlanCache[string]
	func() {
		defer func() { recover() }()
		c.get(nil, "panicky", func() (*Config, Orientation, error) { panic("planner bug") })
	}()
	g := graph.BarabasiAlbert(100, 3, 1)
	done := make(chan error, 1)
	go func() {
		_, _, _, err := c.get(nil, "panicky", plannedBuild(pattern.Triangle(), g))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("retry after panic: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("get blocked after a panicking build — entry left in-flight")
	}
}

// TestPlanCacheAbandonedWaiter: a caller waiting on another caller's
// in-flight build returns ErrPlanAbandoned as soon as its done channel
// closes, is not counted as a hit, and leaves the build to finish and be
// cached for the next caller.
func TestPlanCacheAbandonedWaiter(t *testing.T) {
	var c PlanCache[string]
	g := graph.BarabasiAlbert(100, 3, 1)
	release := make(chan struct{})
	built := make(chan error, 1)
	go func() {
		_, _, _, err := c.get(nil, "slow", func() (*Config, Orientation, error) {
			<-release
			return plannedBuild(pattern.Triangle(), g)()
		})
		built <- err
	}()
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	close(done)
	waited := make(chan error, 1)
	go func() {
		_, _, hit, err := c.get(done, "slow", plannedBuild(pattern.Triangle(), g))
		if hit {
			err = fmt.Errorf("a hit (err %v)", err)
		}
		waited <- err
	}()
	select {
	case err := <-waited:
		if err != ErrPlanAbandoned {
			t.Fatalf("abandoned waiter returned %v, want ErrPlanAbandoned", err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("a waiter whose done channel closed stayed blocked on the in-flight build")
	}
	if st := c.Stats(); st.Hits != 0 || st.Plans != 1 {
		t.Fatalf("after the abandoned wait: %+v, want no hit and one planning run", st)
	}

	close(release)
	if err := <-built; err != nil {
		t.Fatal(err)
	}
	// A closed done channel does not turn a ready entry away.
	if cfg, _, hit, err := c.get(done, "slow", plannedBuild(pattern.Triangle(), g)); err != nil || !hit || cfg == nil {
		t.Fatalf("after the build: cfg=%v hit=%v err=%v, want a hit", cfg, hit, err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Plans != 1 {
		t.Fatalf("after the build: %+v, want one hit and one planning run", st)
	}
}
