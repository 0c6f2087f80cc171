package span

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// Span is one closed span from a recorded file.
type Span struct {
	ID       uint64
	Parent   uint64
	Label    string
	Node     int32
	Start    time.Duration
	End      time.Duration
	Tx       string // 16 hex chars, "" when not a transaction anchor
	Block    uint64
	HasBlock bool
	View     uint64
}

// Dur returns the span's virtual duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// File is a fully parsed span file. Spans appear in emission order, which
// is end-time order — a parent event span always precedes its event
// children (interval spans may close, and thus appear, after theirs).
type File struct {
	Chain string
	Seed  int64
	Nodes int
	Spans []Span

	byID map[uint64]int // span id -> index into Spans
}

// Lookup returns the span with the given id.
func (f *File) Lookup(id uint64) (Span, bool) {
	i, ok := f.byID[id]
	if !ok {
		return Span{}, false
	}
	return f.Spans[i], true
}

// rawRecord is the union of every record shape in a span file.
type rawRecord struct {
	T      int64   `json:"t"`
	Kind   string  `json:"kind"`
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent"`
	Label  string  `json:"label"`
	Node   int32   `json:"node"`
	Start  int64   `json:"start"`
	Tx     string  `json:"tx"`
	Block  *uint64 `json:"block"`
	View   uint64  `json:"view"`

	Chain string `json:"chain"`
	Seed  int64  `json:"seed"`
	Nodes int    `json:"nodes"`
}

// Read parses a span stream. Unknown record kinds are errors: a span file
// is a versioned artifact, not a grab bag.
func Read(r io.Reader) (*File, error) {
	f := &File{byID: make(map[uint64]int)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec rawRecord
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("span: line %d: %w", line, err)
		}
		switch rec.Kind {
		case KindMeta:
			f.Chain, f.Seed, f.Nodes = rec.Chain, rec.Seed, rec.Nodes
		case KindSpan:
			s := Span{
				ID:     rec.ID,
				Parent: rec.Parent,
				Label:  rec.Label,
				Node:   rec.Node,
				Start:  time.Duration(rec.Start),
				End:    time.Duration(rec.T),
				Tx:     rec.Tx,
				View:   rec.View,
			}
			if rec.Block != nil {
				s.Block, s.HasBlock = *rec.Block, true
			}
			f.byID[s.ID] = len(f.Spans)
			f.Spans = append(f.Spans, s)
		default:
			return nil, fmt.Errorf("span: line %d: unknown record kind %q", line, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("span: %w", err)
	}
	return f, nil
}

// ReadFile parses a span file; a ".gz" suffix is transparently
// decompressed.
func ReadFile(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	var r io.Reader = fh
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(fh)
		if err != nil {
			return nil, fmt.Errorf("span: %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	return Read(r)
}
