// Package taskpool provides the shared-memory parallel runtime underneath
// GraphPi's engine (paper §IV-E). The paper splits the outer loops of the
// matching program into fine-grained tasks to counter the power-law workload
// skew of real graphs; this package supplies the task ranges (AdaptiveChunk,
// SplitChunks) that both the single-node engine and the cluster master cut,
// and Run, the dynamic chunk self-scheduling from a shared counter (the
// OpenMP "dynamic schedule") that the single-node engine's workers use.
package taskpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// LinePad is the unused space that keeps one worker's hot state off every
// cache line another allocation uses: a 64-byte line and its neighbour, which
// the adjacent-line prefetcher fetches as a pair. A struct a worker writes in
// its inner loop starts and ends with one (see Owned for why).
type LinePad [128]byte

// Owned returns a slice of length n and capacity c whose elements share no
// cache line with any other allocation. It is for the state one worker writes
// in its inner loop — bound vertices, buffer headers, IEP scratch. Allocated
// plainly, such a small object can land beside another worker's or beside a
// plan's read-hot data, and the cores then trade the line on every write;
// placement follows allocation order, so the slowdown comes and goes from one
// run to the next (a 2-worker IEP count took 175 or 250 ms by luck of
// placement). Appending past c reallocates without the padding, so c must
// bound the slice's use.
func Owned[T any](n, c int) []T {
	pad := int(unsafe.Sizeof(LinePad{}))/max(int(unsafe.Sizeof(*new(T))), 1) + 1
	return make([]T, pad+c+pad)[pad : pad+n : pad+c]
}

// Range is a half-open interval [Start, End) of task indices.
type Range struct {
	Start, End int
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.End - r.Start }

// Workers normalizes a worker-count request: values < 1 become
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run partitions [0, n) into chunks of the given size and hands them to
// workers goroutines that self-schedule from a shared atomic cursor. fn is
// called with the worker index (0 ≤ worker < workers) and the claimed range.
// Run returns when every chunk has been processed. chunk < 1 defaults to 1.
func Run(workers, n, chunk int, fn func(worker int, r Range)) {
	workers = Workers(workers)
	if chunk < 1 {
		chunk = 1
	}
	if n <= 0 {
		return
	}
	if workers == 1 {
		fn(0, Range{0, n})
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				start := int(cursor.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				fn(worker, Range{start, end})
			}
		}(w)
	}
	wg.Wait()
}

// AdaptiveChunk sizes tasks over n work items for the given worker count:
// it targets perWorker tasks per worker (so self-scheduling and the cluster
// master's on-demand grants can smooth out power-law skew) and clamps the
// result to [minChunk, maxChunk] (maxChunk < 1 means uncapped). Both the
// single-node engine (vertex and edge-slot roots) and the cluster derive
// their default task granularity from this one formula, so the two runtimes
// stay comparable.
func AdaptiveChunk(n, workers, perWorker, minChunk, maxChunk int) int {
	if workers < 1 {
		workers = 1
	}
	if perWorker < 1 {
		perWorker = 1
	}
	c := n / (workers * perWorker)
	if minChunk < 1 {
		minChunk = 1
	}
	if c < minChunk {
		c = minChunk
	}
	if maxChunk >= 1 && c > maxChunk {
		c = maxChunk
	}
	return c
}

// SplitChunks cuts [0, n) into contiguous ranges of the given size.
func SplitChunks(n, chunk int) []Range {
	if n <= 0 {
		return nil
	}
	if chunk < 1 {
		chunk = 1
	}
	out := make([]Range, 0, (n+chunk-1)/chunk)
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		out = append(out, Range{start, end})
	}
	return out
}
