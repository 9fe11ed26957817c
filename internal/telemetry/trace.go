package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Tracer writes NDJSON span events — one JSON object per line — for the
// coarse phases of query execution: plan, run, cluster-deal,
// request. A Tracer is safe for concurrent use; a nil *Tracer discards
// every event, so call sites need no enablement checks.
//
// Event schema (one line each):
//
//	{"ts":"2026-08-08T12:00:00.000000001Z","span":"plan","durMS":1.25,
//	 "attrs":{"graph":"web","pattern":"triangle","cache":"miss"}}
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
}

// NewTracer wraps a writer; the caller owns closing it.
func NewTracer(w io.Writer) *Tracer {
	if w == nil {
		return nil
	}
	return &Tracer{w: w, enc: json.NewEncoder(w)}
}

// SpanEvent is the wire form of one span.
type SpanEvent struct {
	TS    string            `json:"ts"`
	Span  string            `json:"span"`
	DurMS float64           `json:"durMS"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Span records a completed phase: its name, when it started, and optional
// attributes. The event timestamp is the span's start.
func (t *Tracer) Span(name string, start time.Time, attrs map[string]string) {
	if t == nil {
		return
	}
	ev := SpanEvent{
		TS:    start.UTC().Format(time.RFC3339Nano),
		Span:  name,
		DurMS: float64(time.Since(start)) / float64(time.Millisecond),
		Attrs: attrs,
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = t.enc.Encode(ev) // tracing is best-effort; a full disk must not fail queries
}
