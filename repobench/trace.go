package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded around a call into a layer. Spans of
// one operation (a campaign rep, a schedd request) share Trace; Parent is
// the ID of the enclosing span, 0 for a root.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Trace   int64   `json:"trace"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory; they are written out once, when the run
// ends. A nil *tracer records nothing, so untraced code paths pay one nil
// check per span. A tracer is used from one goroutine at a time.
type tracer struct {
	epoch time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span; end closes it and returns its ID (for children).
func (t *tracer) start(trace, parent int64, name string) *span {
	if t == nil {
		return nil
	}
	t.next++
	return &span{ID: t.next, Parent: parent, Trace: trace, Name: name,
		StartUS: float64(time.Since(t.epoch).Nanoseconds()) / 1e3}
}

func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	s.EndUS = float64(time.Since(t.epoch).Nanoseconds()) / 1e3
	t.spans = append(t.spans, *s)
}

// id returns a span's ID, 0 for the nil span of an untraced run.
func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// appendSpans appends spans recorded by another tracer, renumbering their
// IDs past every ID already in dst so that the merged set stays a forest.
func appendSpans(dst, src []span) []span {
	var offset int64
	for _, s := range dst {
		offset = max(offset, s.ID, s.Trace)
	}
	for _, s := range src {
		s.ID += offset
		s.Trace += offset
		if s.Parent != 0 {
			s.Parent += offset
		}
		dst = append(dst, s)
	}
	return dst
}

// writeTrace stores the run's spans and provenance as one JSON document.
func writeTrace(path string, prov provenance, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
