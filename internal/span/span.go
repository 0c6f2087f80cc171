// Package span is the causal span layer: every scheduled event, simnet
// delivery, consensus round and mempool admission opens a span carrying a
// parent reference, so each committed transaction yields a complete causal
// tree in virtual time. On top of the recorded tree sit critical-path
// extraction (per tx and per block, with per-subsystem contributions
// summing exactly to commit latency) and a folded-stack flamegraph
// exporter.
//
// Like the tracer in internal/obs, every hook is safe (and free) on a
// nil *Recorder, all timestamps are virtual scheduler time, and records
// are emitted as JSONL with a fixed field order through a hand-rolled
// serializer — a span file from a seeded run is byte-identical across
// machines and repetitions. Recording only observes: it never schedules
// events or draws randomness, so a run's result JSON, traces and
// checkpoints are byte-identical whether spans are on or off.
package span

import (
	"bufio"
	"io"
	"strconv"
	"time"

	"diablo/internal/sim"
	"diablo/internal/types"
)

// Record kinds, as they appear in the JSONL "kind" field.
const (
	KindMeta = "meta" // first line: chain, seed, node count
	KindSpan = "span" // one closed span
)

// kindLabels maps a scheduler event kind to its default span label. The
// label's prefix (up to the first dot) is the subsystem critical-path
// contributions are attributed to. Observer events (checkpoint capture)
// are untracked: instrumenting a run must not change its span file.
var kindLabels = [...]string{
	sim.KindGeneric:    "sched.event",
	sim.KindConsensus:  "consensus.step",
	sim.KindDelivery:   "net.deliver",
	sim.KindClient:     "client.event",
	sim.KindChaos:      "chaos.event",
	sim.KindSubmission: "workload.submit",
	sim.KindTick:       "sched.tick",
	sim.KindObserver:   "",
}

// pendingEvent is a scheduled-but-not-yet-run event span: the span covers
// [scheduled → run], so the queue wait is the span.
type pendingEvent struct {
	parent uint64
	start  time.Duration
	label  string
	node   int32
}

// openInterval is a Begin-ed interval span awaiting its End.
type openInterval struct {
	parent uint64
	start  time.Duration
	label  string
	node   int32
	view   uint64
}

// running is one level of the execution stack (the event currently being
// run, established by EventRun/EventDone).
type running struct {
	id    uint64
	label string
}

// Recorder emits causal spans as JSONL. All methods are safe on a nil
// receiver (they do nothing), which is the disabled fast path. A Recorder
// implements sim.Profiler.
type Recorder struct {
	w       *bufio.Writer
	buf     []byte //lint:allow snapshotdrift recorder output buffer; span output is reporting, not replay state
	err     error  //lint:allow snapshotdrift write-error latch for the span sink; reporting only
	next    uint64 // next span id (ids start at 1; 0 = no span)
	emitted uint64
	dropped uint64 // cancelled events whose spans never ran

	pending map[uint64]pendingEvent
	open    map[uint64]openInterval
	stack   []running

	// one-shot label hint consumed by the next EventScheduled, so call
	// sites (simnet delivery, client RPC) can label their events without
	// widening the Profiler interface
	hintLabel string //lint:allow snapshotdrift pending span hint; observer wiring
	hintNode  int32  //lint:allow snapshotdrift pending span hint; observer wiring

	wall *wallProfile //lint:allow snapshotdrift wall-clock sidecar (nil unless enabled); measurement-side only
}

// NewRecorder wraps a span sink. A nil sink is allowed: the recorder then
// tracks spans (for the wall-time sidecar) without writing span records.
// The caller owns the sink; Flush must be called before it is closed.
func NewRecorder(w io.Writer) *Recorder {
	r := &Recorder{
		pending:  make(map[uint64]pendingEvent),
		open:     make(map[uint64]openInterval),
		next:     1,
		hintNode: -1,
		buf:      make([]byte, 0, 256),
	}
	if w != nil {
		r.w = bufio.NewWriterSize(w, 1<<16)
	}
	return r
}

// Emitted returns how many span records were written.
func (r *Recorder) Emitted() uint64 {
	if r == nil {
		return 0
	}
	return r.emitted
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	return r.err
}

// cur returns the currently-executing span id (0 outside any event).
func (r *Recorder) cur() uint64 {
	if n := len(r.stack); n > 0 {
		return r.stack[n-1].id
	}
	return 0
}

// Hint labels the next scheduled event. It is one-shot: consumed (or
// discarded, for observer events) by the next EventScheduled.
func (r *Recorder) Hint(label string, node int32) {
	if r == nil {
		return
	}
	r.hintLabel, r.hintNode = label, node
}

// EventScheduled implements sim.Profiler: an event entered the queue at
// virtual time now. The returned id tracks it until run or cancellation.
func (r *Recorder) EventScheduled(kind sim.EventKind, now time.Duration) uint64 {
	if r == nil {
		return 0
	}
	label, node := r.hintLabel, r.hintNode
	r.hintLabel, r.hintNode = "", -1
	if kind == sim.KindObserver {
		return 0
	}
	if label == "" {
		label = kindLabels[kind]
	}
	id := r.next
	r.next++
	r.pending[id] = pendingEvent{parent: r.cur(), start: now, label: label, node: node}
	return id
}

// EventCancelled implements sim.Profiler: the event will never run, so
// its span is retired without a record (a cancelled timer is not part of
// any causal chain).
func (r *Recorder) EventCancelled(id uint64) {
	if r == nil {
		return
	}
	delete(r.pending, id)
	r.dropped++
}

// EventRun implements sim.Profiler: the event starts executing at now.
// The span record is emitted here — parents always precede their
// event-children in the file — and the span becomes the current parent
// for everything scheduled or pointed during the event body.
func (r *Recorder) EventRun(id uint64, now time.Duration) {
	if r == nil {
		return
	}
	p, ok := r.pending[id]
	if !ok {
		return
	}
	delete(r.pending, id)
	r.span(id, p.parent, p.label, p.node, p.start, now, nil, 0, false, 0)
	r.stack = append(r.stack, running{id: id, label: p.label})
	r.wall.push(p.label)
}

// EventDone implements sim.Profiler: the current event finished.
func (r *Recorder) EventDone() {
	if r == nil {
		return
	}
	if n := len(r.stack); n > 0 {
		r.stack = r.stack[:n-1]
	}
	r.wall.pop()
}

// Point emits an instantaneous span (start = end = now) under the
// currently-executing span.
func (r *Recorder) Point(now time.Duration, label string, node int32) {
	if r == nil {
		return
	}
	id := r.next
	r.next++
	r.span(id, r.cur(), label, node, now, now, nil, 0, false, 0)
}

// PointTx is Point carrying a transaction id — the anchors ("client.submit",
// "mempool.admit", "chain.include", "client.commit") critical-path
// extraction hangs a transaction's causal tree on.
func (r *Recorder) PointTx(now time.Duration, label string, node int32, tx types.Hash) {
	if r == nil {
		return
	}
	id := r.next
	r.next++
	r.span(id, r.cur(), label, node, now, now, &tx, 0, false, 0)
}

// PointBlock is Point carrying a block number (the "chain.block" anchor).
func (r *Recorder) PointBlock(now time.Duration, label string, node int32, block uint64) {
	if r == nil {
		return
	}
	id := r.next
	r.next++
	r.span(id, r.cur(), label, node, now, now, nil, block, true, 0)
}

// Begin opens an interval span (a consensus round) under the currently
// executing span and returns its id for End. view annotates the round.
func (r *Recorder) Begin(now time.Duration, label string, node int32, view uint64) uint64 {
	if r == nil {
		return 0
	}
	id := r.next
	r.next++
	r.open[id] = openInterval{parent: r.cur(), start: now, label: label, node: node, view: view}
	return id
}

// Annotate emits a point span under an explicit parent — a round phase
// ("consensus.propose", "consensus.vote", "consensus.commit") under its
// round's interval span. A zero parent (spans disabled at Begin) is a
// no-op.
func (r *Recorder) Annotate(parent uint64, now time.Duration, label string, node int32) {
	if r == nil || parent == 0 {
		return
	}
	id := r.next
	r.next++
	r.span(id, parent, label, node, now, now, nil, 0, false, 0)
}

// End closes an interval span opened by Begin, emitting its record.
func (r *Recorder) End(id uint64, now time.Duration) {
	if r == nil || id == 0 {
		return
	}
	o, ok := r.open[id]
	if !ok {
		return
	}
	delete(r.open, id)
	r.span(id, o.parent, o.label, o.node, o.start, now, nil, 0, false, o.view)
}

// Meta emits the header line carrying run identity.
func (r *Recorder) Meta(chain string, seed int64, nodes int) {
	if r == nil || r.w == nil {
		return
	}
	r.buf = append(r.buf[:0], `{"kind":"`...)
	r.buf = append(r.buf, KindMeta...)
	r.buf = append(r.buf, '"')
	r.strField("chain", chain)
	r.intField("seed", seed)
	r.intField("nodes", int64(nodes))
	r.line()
}

// span emits one closed span record with the package's fixed field order:
// t (end), kind, id, parent, label, node, start, then the optional tx /
// block / view annotations (whose presence is a deterministic function of
// the span's label).
func (r *Recorder) span(id, parent uint64, label string, node int32, start, end time.Duration, tx *types.Hash, block uint64, hasBlock bool, view uint64) {
	r.emitted++
	if r.w == nil {
		return
	}
	r.buf = append(r.buf[:0], `{"t":`...)
	r.buf = strconv.AppendInt(r.buf, int64(end), 10)
	r.buf = append(r.buf, `,"kind":"`...)
	r.buf = append(r.buf, KindSpan...)
	r.buf = append(r.buf, '"')
	r.uintField("id", id)
	r.uintField("parent", parent)
	r.strField("label", label)
	r.intField("node", int64(node))
	r.intField("start", int64(start))
	if tx != nil {
		r.buf = append(r.buf, `,"tx":"`...)
		for _, b := range tx[:8] {
			r.buf = append(r.buf, hexDigits[b>>4], hexDigits[b&0xf])
		}
		r.buf = append(r.buf, '"')
	}
	if hasBlock {
		r.uintField("block", block)
	}
	if view != 0 {
		r.uintField("view", view)
	}
	r.line()
}

// Finish drops still-pending state: events that never ran and rounds that
// never closed are not part of any committed causal chain. Call once, at
// the end of the run, before Flush.
func (r *Recorder) Finish() {
	if r == nil {
		return
	}
	r.dropped += uint64(len(r.pending)) + uint64(len(r.open))
	r.pending = make(map[uint64]pendingEvent)
	r.open = make(map[uint64]openInterval)
}

// Flush drains the internal buffer into the sink.
func (r *Recorder) Flush() error {
	if r == nil || r.w == nil {
		return nil
	}
	if err := r.w.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

const hexDigits = "0123456789abcdef"

// line closes the current record and writes it out.
func (r *Recorder) line() {
	r.buf = append(r.buf, '}', '\n')
	if _, err := r.w.Write(r.buf); err != nil && r.err == nil {
		r.err = err
	}
}

func (r *Recorder) intField(name string, v int64) {
	r.buf = append(r.buf, ',', '"')
	r.buf = append(r.buf, name...)
	r.buf = append(r.buf, '"', ':')
	r.buf = strconv.AppendInt(r.buf, v, 10)
}

func (r *Recorder) uintField(name string, v uint64) {
	r.buf = append(r.buf, ',', '"')
	r.buf = append(r.buf, name...)
	r.buf = append(r.buf, '"', ':')
	r.buf = strconv.AppendUint(r.buf, v, 10)
}

func (r *Recorder) strField(name, v string) {
	r.buf = append(r.buf, ',', '"')
	r.buf = append(r.buf, name...)
	r.buf = append(r.buf, '"', ':', '"')
	r.buf = appendEscaped(r.buf, v)
	r.buf = append(r.buf, '"')
}

// appendEscaped JSON-escapes a (short, ASCII) label or key string.
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
