package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one harness span: an interval around a call into a layer,
// recorded from the benchmark's own files (in-program tracing is a later
// change). All spans of one (workload, rep) share Run.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	// StartNs and EndNs are wall-clock unix nanoseconds.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`

	Start time.Time `json:"-"`
	End   time.Time `json:"-"`
}

// tracer keeps spans in memory until write. It is used from one
// goroutine only. The first span begun is the run's root: later spans
// begun without a parent are its children.
type tracer struct {
	run   string
	spans []*span
}

func newTracer(run string) *tracer { return &tracer{run: run} }

func (t *tracer) begin(name string, parent *span) *span {
	return t.beginAt(name, parent, time.Now())
}

func (t *tracer) beginAt(name string, parent *span, at time.Time) *span {
	s := &span{Run: t.run, ID: len(t.spans) + 1, Name: name, Start: at, StartNs: at.UnixNano()}
	if parent == nil && len(t.spans) > 0 {
		parent = t.spans[0]
	}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

func (s *span) end() {
	s.End = time.Now()
	s.EndNs = s.End.UnixNano()
}

// write appends the spans to path as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
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
