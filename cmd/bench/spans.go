package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the traced phase. Spans live in memory and
// are written as NDJSON when the run ends; the program under test is not
// touched, every span wraps a call the benchmark itself makes or restates a
// duration the program already reports (tracer events, /count response
// fields).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = root
	Query   int     `json:"query"`  // spans of one query share it
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // since the recorder's epoch
	EndMS   float64 `json:"end_ms"`
}

// recorder collects spans. A nil *recorder discards everything, which is how
// the untraced phase runs the same code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	query int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newQuery returns a fresh query id.
func (r *recorder) newQuery() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.query++
	return r.query
}

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent, query int, start time.Time, dur time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := span{
		ID: len(r.spans) + 1, Parent: parent, Query: query, Name: name,
		StartMS: ms(start.Sub(r.epoch)),
		EndMS:   ms(start.Sub(r.epoch) + dur),
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// begin opens a span now and returns its id, so children can name it as
// their parent, and the func that closes it.
func (r *recorder) begin(name string, parent, query int) (id int, end func()) {
	if r == nil {
		return 0, func() {}
	}
	start := time.Now()
	id = r.add(name, parent, query, start, 0)
	return id, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.spans[id-1].EndMS = ms(time.Since(r.epoch))
	}
}

// coverage returns, over all spans named root, the smallest share of a root's
// duration that its direct children account for (1 when there are no such
// roots). Self time of a span is its duration minus that share.
func (r *recorder) coverage(root string) float64 {
	if r == nil {
		return 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int]float64{}
	for _, s := range r.spans {
		children[s.Parent] += s.EndMS - s.StartMS
	}
	lowest := 1.0
	for _, s := range r.spans {
		if s.Name != root {
			continue
		}
		if d := s.EndMS - s.StartMS; d > 0 && children[s.ID]/d < lowest {
			lowest = children[s.ID] / d
		}
	}
	return lowest
}

// appendTo writes the spans as NDJSON, one object per line, tagged with the
// workload, appending so the workloads of a full run share one file.
func (r *recorder) appendTo(path, workload string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{workload, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
