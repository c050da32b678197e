package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call made by the benchmark: an HTTP request, or a
// direct call into a layer that replays that request's work. Spans of one
// request share its request id; a replay span's parent is the span whose
// work it stands for.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	ReqID  string `json:"req_id,omitempty"`
	// Start and End are nanoseconds since the trace began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Value carries a size the call produced (vertices, rows, bytes).
	Value float64 `json:"value,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(name, reqID string, parent int64, start, end time.Time, value float64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, ReqID: reqID,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Value: value,
	})
	return id
}

// timed runs fn and records it as a span.
func (t *tracer) timed(name, reqID string, parent int64, fn func() float64) int64 {
	start := time.Now()
	v := fn()
	return t.add(name, reqID, parent, start, time.Now(), v)
}

// mark records a zero-length span that only carries a value.
func (t *tracer) mark(name, reqID string, parent int64, value float64) {
	now := time.Now()
	t.add(name, reqID, parent, now, now, value)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the
// durations of its direct children, floored at zero. Children here are
// replays run after their parent rather than inside its interval, so
// their durations are attributed to the parent instead of intersected
// with it; one child never overlaps another.
func selfTimes(spans []span) map[int64]time.Duration {
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for id, d := range self {
		if d < 0 {
			self[id] = 0
		}
	}
	return self
}

// byName collects values of the spans with a given name: their durations
// in ms, their self times in ms, or their values.
func byName(spans []span, name string, f func(span) float64) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, f(s))
		}
	}
	return out
}

// writeTrace writes the spans to path as JSON.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
