package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public function it calls. Parent is the index of the
// enclosing span (-1 for an op's root); Op ties every span of one op
// together.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	// Alloc is the Go heap bytes allocated inside the span; measured only
	// for the spans opened with beginAlloc.
	Alloc uint64 `json:"alloc_bytes,omitempty"`

	allocOn bool
	alloc0  uint64
}

// tracer keeps spans and per-op counters in memory for the traced run. A
// nil *tracer is the untraced state: every method is a nil check and
// returns, so the end-to-end run pays nothing for the instrumentation.
type tracer struct {
	t0     time.Time
	op     int
	spans  []span
	open   []int
	counts map[string]float64
	// pass bounds identity counts to the first pass over the deck, so they
	// repeat exactly from run to run whatever the host speed.
	pass int
}

func newTracer(pass int) *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}, pass: pass}
}

func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Op: t.op})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// beginAlloc opens a span that also measures the heap bytes allocated
// inside it (runtime.MemStats.TotalAlloc delta).
func (t *tracer) beginAlloc(name string) int {
	if t == nil {
		return -1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	id := t.begin(name)
	t.spans[id].allocOn, t.spans[id].alloc0 = true, ms.TotalAlloc
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.t0)
	if s.allocOn {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.Alloc = ms.TotalAlloc - s.alloc0
	}
	t.open = t.open[:len(t.open)-1]
}

// add accumulates a per-op counter (bytes produced, events recorded).
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// addIdentity accumulates a simulated count that must repeat exactly: only
// ops of the first deck pass contribute.
func (t *tracer) addIdentity(name string, v float64) {
	if t != nil && t.op < t.pass {
		t.counts[name] += v
	}
}

// layerTotals is one span name's aggregate over the traced run.
type layerTotals struct {
	calls int
	busy  time.Duration
	self  time.Duration
	alloc uint64
}

// totals aggregates spans by name: busy time is the span duration, self
// time the duration minus the parts covered by child spans.
func (t *tracer) totals() map[string]*layerTotals {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		lt.calls++
		lt.busy += s.End - s.Start
		lt.self += s.End - s.Start - child[i]
		lt.alloc += s.Alloc
	}
	return out
}

// writeSpans writes the header line and then one JSON span per line.
func (t *tracer) writeSpans(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
