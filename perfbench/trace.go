package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call, recorded by the benchmark around a call into
// a layer. Spans of one simulated execution share Op (0 outside any).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Label  string  `json:"label,omitempty"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name, label string, parent, op int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Label: label, Start: t.now()})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (overlapping children count
// once; a child's part outside its parent counts not at all).
func selfTimes(spans []span) map[string]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the spans.
func covered(lo, hi float64, spans []span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	total, reach := 0.0, lo
	for _, s := range spans {
		a, b := max(s.Start, reach), min(s.End, hi)
		if b > a {
			total += b - a
			reach = b
		}
	}
	return total
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// timed runs f inside a span and returns the counters' change over it.
// Without a tracer it only runs f.
func timed(tr *tracer, p *probe, name, label string, parent, op int, f func()) delta {
	if tr == nil {
		f()
		return delta{}
	}
	id := tr.begin(name, label, parent, op)
	a := p.read()
	f()
	b := p.read()
	tr.end(id)
	return since(a, b)
}
