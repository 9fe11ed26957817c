package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 latency buckets. Bucket i counts
// observations in [2^i, 2^(i+1)) nanoseconds (bucket 0 also absorbs 0 and
// 1ns); the top bucket absorbs everything ≥ 2^(histBuckets-1) ns (~34s).
const histBuckets = 36

// Histogram is a fixed-bucket log2 latency histogram safe for concurrent
// observation: a bucket increment is one atomic add, no allocation, no lock.
// The zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	b := bits.Len64(ns)
	if b > 0 {
		b--
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sumNS.Add(int64(d))
	h.buckets[bucketOf(d)].Add(1)
}

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start))
}

// Bucket is one snapshot bucket: the count of observations in the log2
// bucket whose inclusive upper bound is UpperNS (not cumulative).
type Bucket struct {
	UpperNS int64 `json:"upperNS"`
	Count   int64 `json:"count"`
}

// HistogramSnapshot is an immutable copy of a Histogram, the form embedded
// in JSON stats structs. Zero-count buckets are elided.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	SumNS   int64    `json:"sumNS"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Count: h.count.Load(), SumNS: h.sumNS.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{UpperNS: upperOf(i), Count: n})
		}
	}
	return s
}

// upperOf returns the inclusive upper bound (ns) of bucket i.
func upperOf(i int) int64 {
	if i >= histBuckets-1 {
		return int64(1)<<62 - 1 // effectively +Inf
	}
	return int64(1)<<(i+1) - 1
}
