package main

import (
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: name, start and
// end as nanosecond offsets from the recorder's epoch, and the span that
// caused it (0 for a root). Op spans sampled by the program's own tracer
// are attached under the batch span that ran them.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Stages holds a sampled op's lifecycle offsets (invoke, queue, start,
	// effect, complete; -1 when not reached), relative to StartNs.
	Stages []int64 `json:"stages_ns,omitempty"`
}

// recorder keeps spans in memory until the run ends; nothing is written
// while measuring.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns the function that closes it, together with
// the new span's id for children.
func (r *recorder) begin(name string, parent int) (id int, end func()) {
	start := time.Since(r.epoch)
	r.mu.Lock()
	id = len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, StartNs: int64(start), EndNs: -1})
	r.mu.Unlock()
	return id, func() {
		d := int64(time.Since(r.epoch))
		r.mu.Lock()
		r.spans[id-1].EndNs = d
		r.mu.Unlock()
	}
}

// add records an already finished span.
func (r *recorder) add(s span) {
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}
