package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// pass or one request share Trace, the id of their root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer records nothing, so untraced passes run the same code with
// every probe reduced to a nil check.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []span
	counters map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counters: make(map[string]time.Duration)}
}

// begin opens a span under parent (0 for a root span) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	trace := id
	if parent > 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: now})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// now returns the time on a traced pass and the zero time otherwise.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// since adds the time elapsed from t0 to a named busy-time counter.
// Counters stand in for spans around calls made once per record, where
// a span each would cost more than the call.
func (t *tracer) since(name string, t0 time.Time) {
	if t == nil {
		return
	}
	d := time.Since(t0)
	t.mu.Lock()
	t.counters[name] += d
	t.mu.Unlock()
}

func (t *tracer) counter(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// children returns the direct children of id in start order.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTime is the span's duration minus the part of it its children
// cover (overlapping children count once).
func (t *tracer) selfTime(id int) time.Duration {
	s := t.get(id)
	covered := int64(0)
	cur := s.Start
	for _, c := range t.children(id) {
		lo, hi := max(c.Start, cur), min(c.End, s.End)
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return s.dur() - time.Duration(covered)
}

// writeFile writes every span as one JSON object per line, then the
// counters as one final object.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	counters := make(map[string]int64, len(t.counters))
	for k, v := range t.counters {
		counters[k] = int64(v)
	}
	t.mu.Unlock()
	if err := enc.Encode(map[string]any{"counters_ns": counters}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
