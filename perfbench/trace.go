package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer of the library.
// Spans of one run share RunID; Parent is the id of the span that was
// open when this one started (-1 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	RunID  string  `json:"run_id"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer records spans in memory for one run and writes them out when the
// run ends. Spans nest by call order, so a tracer belongs to the one
// goroutine that makes the traced calls. A nil *tracer records nothing:
// untraced runs pass nil and pay one nil check per call.
type tracer struct {
	runID string
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(runID string) *tracer { return &tracer{runID: runID, t0: time.Now()} }

// do runs f inside a span called name.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, RunID: t.runID, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, id)
	f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.t0).Seconds()
}

// selfSeconds returns each span's self time: its duration minus the time
// its direct children cover. Children of one parent never overlap, since
// one goroutine makes every traced call.
func (t *tracer) selfSeconds() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.seconds()
		if s.Parent >= 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	return self
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]float64 {
	out := map[string]float64{}
	for i, s := range t.selfSeconds() {
		out[t.spans[i].Name] += s
	}
	return out
}

// last returns the id of the most recent span called name, or -1.
func (t *tracer) last(name string) int {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == name {
			return i
		}
	}
	return -1
}

// write stores the spans and their self times as JSON at path.
func (t *tracer) write(path string) error {
	type out struct {
		span
		Self float64 `json:"self_s"`
	}
	self := t.selfSeconds()
	rows := make([]out, len(t.spans))
	for i, s := range t.spans {
		rows[i] = out{s, self[i]}
	}
	b, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
