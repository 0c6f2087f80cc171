// Package snapshot implements deterministic checkpoint/restore for the
// simulation: every checkpointable subsystem serializes its state as an
// ordered sequence of labeled, typed fields (stable field order by
// construction — fields are written in source order, never from map
// iteration), checkpoints are versioned gzip files whose bytes depend only
// on simulation state, and two same-spec runs can be bisected
// checkpoint-by-checkpoint to the first divergent virtual-time window and
// subsystem.
//
// Closures make in-process state teleportation impossible in Go (pending
// scheduler events are func values), and determinism makes it unnecessary:
// a checkpoint is a sealed waypoint (per-subsystem payload + digest), and
// resume is a deterministic fast-forward that rebuilds the state by
// re-execution and *proves* it reached the same waypoint before
// continuing. See DESIGN.md §7.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Field type tags. The tag is part of the encoding, so a type change of a
// field is a format change and fails digest comparison loudly.
const (
	TU64 byte = iota + 1
	TI64
	TF64
	TStr
	TBytes
	TBool
	TDur
)

// maxLen bounds any length prefix read while decoding, so corrupted or
// adversarial inputs cannot trigger huge allocations.
const maxLen = 1 << 26

// Field is one decoded labeled value.
type Field struct {
	Label string
	Type  byte
	U     uint64
	I     int64 // also TDur (nanoseconds)
	F     float64
	S     string
	B     []byte
}

// Value renders the field's value for diffs and error messages.
func (f Field) Value() string {
	switch f.Type {
	case TU64:
		return fmt.Sprintf("%d", f.U)
	case TI64:
		return fmt.Sprintf("%d", f.I)
	case TF64:
		return fmt.Sprintf("%g", f.F)
	case TStr:
		return fmt.Sprintf("%q", f.S)
	case TBytes:
		return fmt.Sprintf("%x", f.B)
	case TBool:
		if f.U != 0 {
			return "true"
		}
		return "false"
	case TDur:
		return time.Duration(f.I).String()
	}
	return "?"
}

// equal reports whether two fields carry the same label, type and value.
func (f Field) equal(g Field) bool {
	if f.Label != g.Label || f.Type != g.Type {
		return false
	}
	switch f.Type {
	case TU64, TBool:
		return f.U == g.U
	case TI64, TDur:
		return f.I == g.I
	case TF64:
		return math.Float64bits(f.F) == math.Float64bits(g.F)
	case TStr:
		return f.S == g.S
	case TBytes:
		return string(f.B) == string(g.B)
	}
	return false
}

// Encoder serializes labeled fields into a deterministic payload. The
// zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

func (e *Encoder) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	e.buf = append(e.buf, tmp[:n]...)
}

func (e *Encoder) varint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	e.buf = append(e.buf, tmp[:n]...)
}

func (e *Encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *Encoder) field(t byte, label string) {
	e.buf = append(e.buf, t)
	e.str(label)
}

// U64 appends an unsigned field.
func (e *Encoder) U64(label string, v uint64) {
	e.field(TU64, label)
	e.uvarint(v)
}

// I64 appends a signed field.
func (e *Encoder) I64(label string, v int64) {
	e.field(TI64, label)
	e.varint(v)
}

// F64 appends a float field (encoded as its IEEE-754 bits, so NaN payloads
// and signed zeros round-trip exactly).
func (e *Encoder) F64(label string, v float64) {
	e.field(TF64, label)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], math.Float64bits(v))
	e.buf = append(e.buf, tmp[:]...)
}

// Str appends a string field.
func (e *Encoder) Str(label, s string) {
	e.field(TStr, label)
	e.str(s)
}

// Bytes appends a raw-bytes field.
func (e *Encoder) Bytes(label string, b []byte) {
	e.field(TBytes, label)
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Bool appends a boolean field.
func (e *Encoder) Bool(label string, v bool) {
	e.field(TBool, label)
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Dur appends a duration field (virtual time).
func (e *Encoder) Dur(label string, d time.Duration) {
	e.field(TDur, label)
	e.varint(int64(d))
}

// Payload returns the encoded bytes.
func (e *Encoder) Payload() []byte { return e.buf }

// byteReader walks a payload with bounds checking; every read can fail
// instead of panicking, which is what FuzzDecode leans on.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) eof() bool { return r.off >= len(r.b) }

func (r *byteReader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("snapshot: truncated input at byte %d", r.off)
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("snapshot: bad uvarint at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("snapshot: bad varint at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) take(n uint64) ([]byte, error) {
	if n > maxLen || r.off+int(n) > len(r.b) {
		return nil, fmt.Errorf("snapshot: length %d exceeds input at byte %d", n, r.off)
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// DecodePayload parses a payload into its field sequence. It returns an
// error — never panics — on truncated or corrupted input.
func DecodePayload(b []byte) ([]Field, error) {
	r := &byteReader{b: b}
	var fields []Field
	for !r.eof() {
		t, err := r.byte()
		if err != nil {
			return nil, err
		}
		label, err := r.str()
		if err != nil {
			return nil, err
		}
		f := Field{Label: label, Type: t}
		switch t {
		case TU64:
			f.U, err = r.uvarint()
		case TI64, TDur:
			f.I, err = r.varint()
		case TF64:
			var raw []byte
			raw, err = r.take(8)
			if err == nil {
				f.F = math.Float64frombits(binary.BigEndian.Uint64(raw))
			}
		case TStr:
			f.S, err = r.str()
		case TBytes:
			var n uint64
			n, err = r.uvarint()
			if err == nil {
				var raw []byte
				raw, err = r.take(n)
				f.B = append([]byte(nil), raw...)
			}
		case TBool:
			var c byte
			c, err = r.byte()
			if err == nil {
				if c > 1 {
					err = fmt.Errorf("snapshot: bad bool value %d", c)
				}
				f.U = uint64(c)
			}
		default:
			err = fmt.Errorf("snapshot: unknown field type %d for %q", t, label)
		}
		if err != nil {
			return nil, err
		}
		fields = append(fields, f)
	}
	return fields, nil
}

// Decoder gives Reconcile and Meta decoding access to a stored section.
type Decoder struct {
	fields []Field
}

// NewDecoder parses a stored section payload.
func NewDecoder(payload []byte) (*Decoder, error) {
	fields, err := DecodePayload(payload)
	if err != nil {
		return nil, err
	}
	return &Decoder{fields: fields}, nil
}

// Fields returns the decoded fields in payload order.
func (d *Decoder) Fields() []Field { return d.fields }

// Lookup returns the first field with the given label.
func (d *Decoder) Lookup(label string) (Field, bool) {
	for _, f := range d.fields {
		if f.Label == label {
			return f, true
		}
	}
	return Field{}, false
}

// FNV-1a 64-bit, the digest used for section payloads and for subsystems'
// internal state summaries (heap contents, pool contents, ledgers).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Digest hashes a payload.
func Digest(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// Hash incrementally digests state that is too large (or too repetitive)
// to store field-by-field: a subsystem folds its bulk state into a Hash
// and writes only the 64-bit sum.
type Hash struct {
	h uint64
}

// NewHash returns a fresh hasher.
func NewHash() *Hash { return &Hash{h: fnvOffset} }

// U64 folds an unsigned value.
func (h *Hash) U64(v uint64) {
	for i := 0; i < 8; i++ {
		h.h = (h.h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
}

// I64 folds a signed value.
func (h *Hash) I64(v int64) { h.U64(uint64(v)) }

// Dur folds a duration.
func (h *Hash) Dur(d time.Duration) { h.U64(uint64(d)) }

// Bytes folds raw bytes (length-prefixed, so concatenations don't collide).
func (h *Hash) Bytes(b []byte) {
	h.U64(uint64(len(b)))
	for _, c := range b {
		h.h = (h.h ^ uint64(c)) * fnvPrime
	}
}

// Str folds a string.
func (h *Hash) Str(s string) {
	h.U64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.h = (h.h ^ uint64(s[i])) * fnvPrime
	}
}

// Bools folds a bool slice (length-prefixed).
func (h *Hash) Bools(bs []bool) {
	h.U64(uint64(len(bs)))
	for _, b := range bs {
		if b {
			h.U64(1)
		} else {
			h.U64(0)
		}
	}
}

// Ints folds an int slice (length-prefixed).
func (h *Hash) Ints(ns []int) {
	h.U64(uint64(len(ns)))
	for _, n := range ns {
		h.I64(int64(n))
	}
}

// Sum returns the digest so far.
func (h *Hash) Sum() uint64 { return h.h }
