package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's own files, around the calls into each layer's public
// functions; spans inside the program are a later change.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // id of the span that caused it; -1 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	SelfNS   int64  `json:"self_ns"` // duration minus the direct children's
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing: the same code path runs untraced.
type tracer struct {
	workload string
	base     time.Time
	spans    []span
	stack    []int
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, base: time.Now()} }

// do runs f inside a span named name (a child of the span open on this
// goroutine) and returns f's wall seconds. Only the harness's main
// goroutine opens spans.
func (t *tracer) do(name string, f func()) float64 {
	if t == nil {
		t0 := time.Now()
		f()
		return time.Since(t0).Seconds()
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload})
	t.stack = append(t.stack, id)
	start := time.Now()
	f()
	end := time.Now()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].StartNS = start.Sub(t.base).Nanoseconds()
	t.spans[id].EndNS = end.Sub(t.base).Nanoseconds()
	return end.Sub(start).Seconds()
}

// write fills in self times and writes the spans as JSON.
func (t *tracer) write(path string) error {
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].EndNS - t.spans[i].StartNS
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfNS -= s.EndNS - s.StartNS
		}
	}
	data, err := json.MarshalIndent(map[string]any{"workload": t.workload, "spans": t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
