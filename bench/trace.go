package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval at a layer boundary. Spans are recorded per
// (layer, pass) rather than per call because a clock read costs more than
// an acmatch scan or an admission check; Calls says how many calls the
// interval covers. Parent links a layer's pass to the pass of the layer
// that calls it in production, so self time is the span minus its
// children. Times are Unix nanoseconds, so spans from the trainer child
// and the driver share one axis.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Pass   int    `json:"pass"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // 0: no parent
	Calls  int    `json:"calls"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: the end-to-end run passes nil and does no tracing work.
type tracer struct {
	spans []span
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, pass, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Pass: pass, Parent: parent,
		Start: time.Now().UnixNano(),
	})
	return len(t.spans)
}

// end closes span id, recording how many calls it covered.
func (t *tracer) end(id, calls int) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.End, s.Calls = time.Now().UnixNano(), calls
}

// record adds an already-timed interval, for spans measured by other means
// (per-request samples of the serve phase).
func (t *tracer) record(name string, pass, parent int, start, end time.Time, calls int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Pass: pass, Parent: parent,
		Start: start.UnixNano(), End: end.UnixNano(), Calls: calls,
	})
	return len(t.spans)
}

// adopt appends spans recorded by another process under parent, renumbering
// them into this tracer's id space.
func (t *tracer) adopt(child []span, parent int) {
	if t == nil {
		return
	}
	base := len(t.spans)
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
