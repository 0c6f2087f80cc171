package main

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// spanRec is one span of the benchmark's own trace: a name, when it started
// and ended (nanoseconds since the run began) and the span that caused it.
// Spans are recorded here, around the calls into each layer, and nowhere
// inside the program under test.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = none
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	recs  []spanRec
	stack []int // indices into recs of the open spans
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (s *spanLog) begin(name string) {
	parent := 0
	if n := len(s.stack); n > 0 {
		parent = s.recs[s.stack[n-1]].ID
	}
	s.recs = append(s.recs, spanRec{ID: len(s.recs) + 1, Parent: parent, Name: name, StartNs: time.Since(s.t0).Nanoseconds()})
	s.stack = append(s.stack, len(s.recs)-1)
}

// end closes the innermost open span and returns how long it lasted.
func (s *spanLog) end() time.Duration {
	n := len(s.stack)
	rec := &s.recs[s.stack[n-1]]
	s.stack = s.stack[:n-1]
	rec.EndNs = time.Since(s.t0).Nanoseconds()
	return time.Duration(rec.EndNs - rec.StartNs)
}

// time runs fn inside a span and returns the span's length.
func (s *spanLog) time(name string, fn func()) time.Duration {
	s.begin(name)
	fn()
	return s.end()
}

// write emits the closed spans as JSONL.
func (s *spanLog) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range s.recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}
