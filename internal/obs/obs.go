// Package obs is the deterministic observability layer: transaction
// lifecycle tracing, a sim-time metrics registry, and the latency
// attribution used by `diablo-report trace`.
//
// Every timestamp is virtual scheduler time, so a trace from a seeded run
// is bit-identical across machines and repetitions — the property the
// chaos and determinism tests rely on. Events are emitted as JSONL with a
// fixed field order through a hand-rolled serializer writing into one
// reusable buffer; with a warm buffer an event emission does not allocate,
// and every hook is safe (and free) on a nil *Tracer / nil *Counter, so
// instrumented hot paths cost nothing when observability is off.
package obs

import (
	"bufio"
	"compress/gzip"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"diablo/internal/types"
)

// Event kinds, as they appear in the JSONL "kind" field.
const (
	KindMeta    = "meta"    // first line: chain, seed, sample interval, metric names
	KindSubmit  = "submit"  // client accepted a transaction for submission
	KindSend    = "send"    // one submission attempt reached the node RPC
	KindAdmit   = "admit"   // the node's mempool admitted the transaction
	KindReject  = "reject"  // the node refused the submission (note says why)
	KindInclude = "include" // a proposer included the transaction in a block
	KindCommit  = "commit"  // the client observed the decision (confirmed)
	KindRetry   = "retry"   // the retry policy resubmitted after a timeout
	KindTimeout = "timeout" // the retry policy gave up on the transaction
	KindBlock   = "block"   // a block was assembled and entered the chain
	KindFault   = "fault"   // a chaos fault was applied or cleared
	KindSample  = "sample"  // one registry sampling tick (vals match meta's metrics)

	KindByzantine = "byzantine" // a byzantine behavior window applied/cleared/fired
	KindViolation = "violation" // an invariant monitor detected a violation
)

// Tracer emits lifecycle events as JSONL. All methods are safe on a nil
// receiver (they do nothing), which is the disabled fast path.
type Tracer struct {
	w      *bufio.Writer
	buf    []byte
	events uint64
	err    error
}

// NewTracer wraps a sink. The caller owns the sink; Flush must be called
// before the sink is closed.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 256)}
}

// Events returns how many events were emitted.
func (t *Tracer) Events() uint64 {
	if t == nil {
		return 0
	}
	return t.events
}

// Err returns the first write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	return t.err
}

// Flush drains the internal buffer into the sink.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

const hexDigits = "0123456789abcdef"

// head begins a line: {"t":<ns>,"kind":"<kind>"
func (t *Tracer) head(at time.Duration, kind string) {
	t.buf = append(t.buf[:0], `{"t":`...)
	t.buf = strconv.AppendInt(t.buf, int64(at), 10)
	t.buf = append(t.buf, `,"kind":"`...)
	t.buf = append(t.buf, kind...)
	t.buf = append(t.buf, '"')
}

// end closes the line and writes it out.
func (t *Tracer) end() {
	t.buf = append(t.buf, '}', '\n')
	if _, err := t.w.Write(t.buf); err != nil && t.err == nil {
		t.err = err
	}
	t.events++
}

// txField appends ,"tx":"<16 hex chars>" — the first 8 bytes of the hash
// identify a transaction within a run.
func (t *Tracer) txField(id types.Hash) {
	t.buf = append(t.buf, `,"tx":"`...)
	for _, b := range id[:8] {
		t.buf = append(t.buf, hexDigits[b>>4], hexDigits[b&0xf])
	}
	t.buf = append(t.buf, '"')
}

func (t *Tracer) intField(name string, v int64) {
	t.buf = append(t.buf, ',', '"')
	t.buf = append(t.buf, name...)
	t.buf = append(t.buf, '"', ':')
	t.buf = strconv.AppendInt(t.buf, v, 10)
}

func (t *Tracer) uintField(name string, v uint64) {
	t.buf = append(t.buf, ',', '"')
	t.buf = append(t.buf, name...)
	t.buf = append(t.buf, '"', ':')
	t.buf = strconv.AppendUint(t.buf, v, 10)
}

func (t *Tracer) floatField(name string, v float64) {
	t.buf = append(t.buf, ',', '"')
	t.buf = append(t.buf, name...)
	t.buf = append(t.buf, '"', ':')
	t.buf = strconv.AppendFloat(t.buf, v, 'g', -1, 64)
}

func (t *Tracer) strField(name, v string) {
	t.buf = append(t.buf, ',', '"')
	t.buf = append(t.buf, name...)
	t.buf = append(t.buf, '"', ':', '"')
	t.buf = appendEscaped(t.buf, v)
	t.buf = append(t.buf, '"')
}

// appendEscaped JSON-escapes a (short, ASCII) annotation string.
func appendEscaped(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < 0x20:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			buf = append(buf, c)
		}
	}
	return buf
}

// Meta emits the header line carrying run identity and the names of the
// sampled metric columns (interval 0 = no sampling).
func (t *Tracer) Meta(chain string, seed int64, interval time.Duration, metrics []string) {
	if t == nil {
		return
	}
	t.buf = append(t.buf[:0], `{"kind":"meta"`...)
	t.strField("chain", chain)
	t.intField("seed", seed)
	t.intField("interval_ns", int64(interval))
	t.buf = append(t.buf, `,"metrics":[`...)
	for i, m := range metrics {
		if i > 0 {
			t.buf = append(t.buf, ',')
		}
		t.buf = append(t.buf, '"')
		t.buf = appendEscaped(t.buf, m)
		t.buf = append(t.buf, '"')
	}
	t.buf = append(t.buf, ']')
	t.end()
}

// Submit records a client accepting a transaction for submission.
func (t *Tracer) Submit(at time.Duration, id types.Hash, node int) {
	if t == nil {
		return
	}
	t.head(at, KindSubmit)
	t.txField(id)
	t.intField("node", int64(node))
	t.end()
}

// Send records one submission attempt reaching the node RPC.
func (t *Tracer) Send(at time.Duration, id types.Hash, node, attempt int) {
	if t == nil {
		return
	}
	t.head(at, KindSend)
	t.txField(id)
	t.intField("node", int64(node))
	if attempt > 0 {
		t.intField("attempt", int64(attempt))
	}
	t.end()
}

// Admit records mempool admission at the submission node.
func (t *Tracer) Admit(at time.Duration, id types.Hash, node int) {
	if t == nil {
		return
	}
	t.head(at, KindAdmit)
	t.txField(id)
	t.intField("node", int64(node))
	t.end()
}

// Reject records a refused submission; note is a short reason code.
func (t *Tracer) Reject(at time.Duration, id types.Hash, node int, note string) {
	if t == nil {
		return
	}
	t.head(at, KindReject)
	t.txField(id)
	t.intField("node", int64(node))
	t.strField("note", note)
	t.end()
}

// Include records block inclusion at assembly time.
func (t *Tracer) Include(at time.Duration, id types.Hash, block uint64) {
	if t == nil {
		return
	}
	t.head(at, KindInclude)
	t.txField(id)
	t.uintField("block", block)
	t.end()
}

// Commit records the client-observed decision (after confirmation depth).
func (t *Tracer) Commit(at time.Duration, id types.Hash, node int) {
	if t == nil {
		return
	}
	t.head(at, KindCommit)
	t.txField(id)
	t.intField("node", int64(node))
	t.end()
}

// Retry records a resubmission; attempt is the new (1-based) attempt count.
func (t *Tracer) Retry(at time.Duration, id types.Hash, attempt int) {
	if t == nil {
		return
	}
	t.head(at, KindRetry)
	t.txField(id)
	t.intField("attempt", int64(attempt))
	t.end()
}

// Timeout records the retry policy abandoning a transaction.
func (t *Tracer) Timeout(at time.Duration, id types.Hash, attempts int) {
	if t == nil {
		return
	}
	t.head(at, KindTimeout)
	t.txField(id)
	t.intField("attempt", int64(attempts))
	t.end()
}

// Block records one assembled block: size, gas, fill ratio and the modeled
// proposer/validator CPU cost (the execution component of attribution).
func (t *Tracer) Block(at time.Duration, number uint64, txs int, gasUsed, gasLimit uint64, fill float64, assemble, validate time.Duration, proposer int) {
	if t == nil {
		return
	}
	t.head(at, KindBlock)
	t.uintField("block", number)
	t.intField("txs", int64(txs))
	t.uintField("gas_used", gasUsed)
	t.uintField("gas_limit", gasLimit)
	t.floatField("fill", fill)
	t.intField("assemble_ns", int64(assemble))
	t.intField("validate_ns", int64(validate))
	t.intField("proposer", int64(proposer))
	t.end()
}

// Fault records a chaos fault transition; phase is "apply" or "clear".
func (t *Tracer) Fault(at time.Duration, phase, note string) {
	if t == nil {
		return
	}
	t.head(at, KindFault)
	t.strField("phase", phase)
	t.strField("note", note)
	t.end()
}

// Byzantine records an adversary transition; phase is "apply", "clear",
// "equivocate" or "defended".
func (t *Tracer) Byzantine(at time.Duration, phase, note string) {
	if t == nil {
		return
	}
	t.head(at, KindByzantine)
	t.strField("phase", phase)
	t.strField("note", note)
	t.end()
}

// Violation records an invariant monitor detecting a breach.
func (t *Tracer) Violation(at time.Duration, invariant string, height uint64, nodes []int, detail string) {
	if t == nil {
		return
	}
	t.head(at, KindViolation)
	t.strField("invariant", invariant)
	t.uintField("height", height)
	t.buf = append(t.buf, `,"nodes":[`...)
	for i, n := range nodes {
		if i > 0 {
			t.buf = append(t.buf, ',')
		}
		t.buf = strconv.AppendInt(t.buf, int64(n), 10)
	}
	t.buf = append(t.buf, ']')
	t.strField("detail", detail)
	t.end()
}

// Sample records one registry sampling tick; vals are ordered like the
// meta line's metric names.
func (t *Tracer) Sample(at time.Duration, vals []float64) {
	if t == nil {
		return
	}
	t.head(at, KindSample)
	t.buf = append(t.buf, `,"vals":[`...)
	for i, v := range vals {
		if i > 0 {
			t.buf = append(t.buf, ',')
		}
		t.buf = strconv.AppendFloat(t.buf, v, 'g', -1, 64)
	}
	t.buf = append(t.buf, ']')
	t.end()
}

// sink couples a trace file with its optional gzip layer so one Close
// flushes both.
type sink struct {
	f  *os.File
	gz *gzip.Writer
}

func (s *sink) Write(p []byte) (int, error) {
	if s.gz != nil {
		return s.gz.Write(p)
	}
	return s.f.Write(p)
}

func (s *sink) Close() error {
	var err error
	if s.gz != nil {
		err = s.gz.Close()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenSink creates a trace file; a path ending in ".gz" is transparently
// gzip-compressed (with a zero header timestamp, keeping same-seed traces
// byte-identical).
func OpenSink(path string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := &sink{f: f}
	if strings.HasSuffix(path, ".gz") {
		s.gz = gzip.NewWriter(f)
	}
	return s, nil
}
