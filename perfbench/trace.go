package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval around a call the benchmark makes into a
// layer. Spans of one request share Req; Parent is the id of the span
// that caused this one (0 for a request's root span). Counts carries
// the layer counters sampled at the span's boundaries (scheduler cells,
// spawns, suspensions, heap allocations), so ratios are measured where
// the work happens.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Req    int64            `json:"req"`
	Layer  string           `json:"layer"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"` // since the run's epoch
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at the end.
// A nil *tracer records nothing, which is how untraced code runs.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// add records a span and returns its id (0 when tracing is off).
func (t *tracer) add(parent, req int64, layer, name string, start, end time.Time, counts map[string]int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Req: req, Layer: layer, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Counts: counts,
	})
	return t.next
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// layerCounts tallies spans per layer.
func (t *tracer) layerCounts() map[string]int {
	out := map[string]int{}
	for _, s := range t.spans {
		out[s.Layer]++
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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
