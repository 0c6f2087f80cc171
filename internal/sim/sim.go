// Package sim provides a deterministic discrete-event simulation engine.
//
// All DIABLO experiments run on virtual time: protocol logic schedules
// events on a Scheduler, and the scheduler executes them in timestamp order
// on a single goroutine. With a fixed seed, a run is fully reproducible,
// and a 200-node, multi-minute experiment completes in seconds of wall
// time.
//
// The scheduler is built for throughput: events live in a slab that is
// recycled through a free list (no per-event heap allocation in steady
// state), the priority queue is a four-ary heap of slab indices (shallower
// than a binary heap, so fewer comparisons and better cache locality per
// operation), cancelled events are deleted lazily with periodic
// compaction so cancel-heavy workloads (retry timers, consensus timeouts)
// keep the queue bounded by the live event count, and a multicast enters
// the queue as one entry (BeginGroup), so 200 nodes voting all-to-all do
// not fill the heap with one entry per recipient.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp measured as a duration since the start of the
// simulation.
type Time = time.Duration

// Callback is a pre-allocated alternative to a func() event body. Hot paths
// that schedule millions of events (message delivery in simnet) implement
// Run on a pooled object and use AtCall, avoiding one closure allocation
// per event.
type Callback interface {
	Run()
}

// EventKind tags a scheduled event with the subsystem that scheduled it.
// Kinds are folded into the checkpoint queue digest alongside (at, seq):
// two runs that schedule *different* work at the same timestamp and
// sequence number — say, a message delivery in one and a consensus timer
// in the other — reconcile as divergent instead of silently matching.
// Call sites register their kind through the *Kind scheduling variants;
// the untagged variants schedule KindGeneric.
type EventKind uint8

const (
	KindGeneric    EventKind = iota // untagged At/After/AtCall/AfterCall
	KindConsensus                   // consensus-engine timers: propose, vote, timeout
	KindDelivery                    // simnet message arrival
	KindClient                      // client submit delays and retry timers
	KindChaos                       // fault-schedule apply/clear events
	KindSubmission                  // workload submission windows
	KindTick                        // periodic tickers (progress, metrics sampling)
	KindObserver                    // read-only instruments (checkpoint capture)
)

var kindNames = [...]string{
	KindGeneric:    "generic",
	KindConsensus:  "consensus",
	KindDelivery:   "delivery",
	KindClient:     "client",
	KindChaos:      "chaos",
	KindSubmission: "submission",
	KindTick:       "tick",
	KindObserver:   "observer",
}

// String returns the kind's registered name.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Profiler observes the scheduler's event lifecycle for causal span
// tracing. EventScheduled is called when an event enters the queue and
// returns an opaque span id (0 = untracked); EventRun/EventDone bracket
// its execution; EventCancelled retires a span whose event will never
// run. A Profiler must only observe — it may not schedule events or draw
// randomness, so attaching one never perturbs the simulation.
type Profiler interface {
	EventScheduled(kind EventKind, now Time) uint64
	EventCancelled(id uint64)
	EventRun(id uint64, now Time)
	EventDone()
}

// SetProfiler attaches a lifecycle profiler. Pass only a non-nil
// implementation; the disabled state is the scheduler's nil field.
func (s *Scheduler) SetProfiler(p Profiler) { s.prof = p }

// event is one slab slot. A slot is reused after its event runs, is
// reaped, or is compacted away; gen distinguishes incarnations so stale
// EventIDs can never touch a recycled slot.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among events with equal timestamps
	span uint64 // profiler span id; 0 when untracked
	fn   func()
	cb   Callback
	gen  uint32
	grp  int32 // multicast group slot (see BeginGroup); 0 = queued alone
	kind EventKind
	dead bool
	obs  bool // observer event: hidden from Executed()/Stats() accounting
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// value is valid and cancels nothing.
type EventID struct {
	s    *Scheduler
	slot int32
	gen  uint32
}

// Cancel prevents the event from running. Cancelling an already-executed or
// already-cancelled event is a no-op. The event's callback is released
// immediately; the queue slot itself is reclaimed lazily (on pop, or by
// compaction when dead events pile up).
//
//perf:noalloc
func (id EventID) Cancel() {
	s := id.s
	if s == nil {
		return
	}
	ev := &s.slab[id.slot]
	if ev.gen != id.gen || ev.dead {
		return
	}
	ev.dead = true
	ev.fn, ev.cb = nil, nil
	if ev.span != 0 {
		s.prof.EventCancelled(ev.span)
		ev.span = 0
	}
	if ev.obs {
		s.obsLive--
	}
	s.ndead++
	if s.ndead >= compactMinDead && s.ndead*2 >= s.npend {
		s.compact()
	}
}

// compactMinDead is the minimum number of dead events before compaction is
// considered; below it, lazy deletion on pop is cheaper than a rebuild.
const compactMinDead = 64

// Scheduler is a deterministic discrete-event scheduler. It is not safe for
// concurrent use: all events run on the caller's goroutine, which is the
// point — determinism comes from the single serialized event loop. For
// parallel sweeps, give every experiment its own Scheduler (and its own
// RNG): isolated schedulers make concurrent cells bit-identical to serial
// ones.
type Scheduler struct {
	now    Time
	slab   []event
	free   []int32 // recycled slab slots
	heap   []int32 // 4-ary min-heap of slab indices, ordered by (at, seq): lone events and each group's next member
	npend  int     // events scheduled and not yet run or reaped, grouped or not
	ndead  int     // cancelled events among them
	groups groups  // multicast groups (see BeginGroup)
	seq    uint64
	rng    *rand.Rand
	rngSrc *CountingSource
	nexec  uint64
	halted bool     //lint:allow snapshotdrift run-control latch for Halt; never set while a checkpoint is captured
	prof   Profiler //lint:allow snapshotdrift profiler hook (nil = span tracing disabled); observer wiring

	// Observer-event accounting: read-only instruments (the checkpoint
	// capture ticker) run as ordinary events for determinism, but are
	// subtracted from the Executed()/Stats() numbers the metrics registry
	// samples — arming an instrument must not change a run's outputs.
	obsLive int
	obsExec uint64
}

// NewScheduler returns a scheduler whose clock starts at zero and whose
// random source is seeded with seed. The source is wrapped in a
// CountingSource — the stream is unchanged, but the draw position is
// observable for checkpoint digests.
func NewScheduler(seed int64) *Scheduler {
	src := NewCountingSource(seed)
	return &Scheduler{rng: rand.New(src), rngSrc: src}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source. Protocol code
// must draw all randomness from here to keep runs reproducible.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Executed reports how many events have run so far, excluding observer
// events (see EveryObserver).
func (s *Scheduler) Executed() uint64 { return s.nexec - s.obsExec }

// Pending reports how many events are scheduled but not yet run (including
// cancelled events that have not been reaped or compacted away). Every
// member of a multicast group counts.
func (s *Scheduler) Pending() int { return s.npend }

// HeapStats is a read-only snapshot of scheduler occupancy, sampled by the
// observability registry.
type HeapStats struct {
	Live int // scheduled events that will still run
	Dead int // cancelled events awaiting reap or compaction
	Slab int // total slab capacity (slots ever allocated)
	Free int // recycled slab slots available for reuse
}

// Stats reports current occupancy. Observer events are excluded from
// Live: they instrument the run and must not show up in its metrics.
func (s *Scheduler) Stats() HeapStats {
	return HeapStats{
		Live: s.npend - s.ndead - s.obsLive,
		Dead: s.ndead,
		Slab: len(s.slab),
		Free: len(s.free),
	}
}

// alloc returns a free slab slot, growing the slab when the free list is
// empty.
//
//perf:noalloc
func (s *Scheduler) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.slab = append(s.slab, event{})
	return int32(len(s.slab) - 1)
}

// release recycles a slot: the next incarnation gets a new generation so
// stale EventIDs become no-ops.
//
//perf:noalloc
func (s *Scheduler) release(idx int32) {
	ev := &s.slab[idx]
	ev.fn, ev.cb = nil, nil
	ev.dead = false
	ev.obs = false
	ev.kind = KindGeneric
	ev.span = 0
	ev.grp = 0
	ev.gen++
	s.free = append(s.free, idx)
}

//perf:noalloc
func (s *Scheduler) schedule(at Time, fn func(), cb Callback, kind EventKind) EventID {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now)) //lint:allow hotalloc panic path: boxing for the format args only happens on a scheduling bug, never in steady state
	}
	idx := s.alloc()
	ev := &s.slab[idx]
	ev.at, ev.seq, ev.fn, ev.cb, ev.kind = at, s.seq, fn, cb, kind
	if s.prof != nil {
		ev.span = s.prof.EventScheduled(kind, s.now)
	}
	s.seq++
	s.npend++
	if s.groups.depth > 0 {
		s.groups.open = append(s.groups.open, idx)
	} else {
		s.heapPush(idx)
	}
	return EventID{s: s, slot: idx, gen: ev.gen}
}

// At schedules fn to run at the absolute virtual time at. Scheduling in the
// past panics: it would silently reorder causality.
func (s *Scheduler) At(at Time, fn func()) EventID {
	return s.schedule(at, fn, nil, KindGeneric)
}

// AtKind is At with an event-kind tag; the tag is folded into the
// checkpoint queue digest so cross-run event mismatches reconcile as
// divergent (see EventKind).
func (s *Scheduler) AtKind(kind EventKind, at Time, fn func()) EventID {
	return s.schedule(at, fn, nil, kind)
}

// AtCall schedules cb.Run at the absolute virtual time at. It is At for
// allocation-sensitive callers: cb is typically a pooled object, so the
// hot path allocates nothing.
func (s *Scheduler) AtCall(at Time, cb Callback) EventID {
	return s.schedule(at, nil, cb, KindGeneric)
}

// AtCallKind is AtCall with an event-kind tag (see EventKind).
func (s *Scheduler) AtCallKind(kind EventKind, at Time, cb Callback) EventID {
	return s.schedule(at, nil, cb, kind)
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (s *Scheduler) After(d time.Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AfterKind is After with an event-kind tag (see EventKind).
func (s *Scheduler) AfterKind(kind EventKind, d time.Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return s.AtKind(kind, s.now+d, fn)
}

// AfterCall schedules cb.Run d from now. Negative d is treated as zero.
func (s *Scheduler) AfterCall(d time.Duration, cb Callback) EventID {
	if d < 0 {
		d = 0
	}
	return s.AtCall(s.now+d, cb)
}

// AfterCallKind is AfterCall with an event-kind tag (see EventKind).
func (s *Scheduler) AfterCallKind(kind EventKind, d time.Duration, cb Callback) EventID {
	if d < 0 {
		d = 0
	}
	return s.AtCallKind(kind, s.now+d, cb)
}

// Every schedules fn to run every interval, starting interval from now,
// until the returned Ticker is stopped or the simulation ends. Ticker
// firings carry the KindTick tag.
func (s *Scheduler) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{s: s, interval: interval, fn: fn, kind: KindTick}
	t.arm()
	return t
}

// EveryObserver is Every for read-only instruments: the ticker's events
// run deterministically like any other, but are excluded from the
// Executed count and Stats occupancy that the metrics registry samples.
// The checkpoint capture ticker uses this so a checkpointed run's trace
// and result are byte-identical to an uninstrumented run's.
func (s *Scheduler) EveryObserver(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{s: s, interval: interval, fn: fn, kind: KindObserver, observer: true}
	t.arm()
	return t
}

// Ticker repeatedly schedules a callback at a fixed virtual interval.
type Ticker struct {
	s        *Scheduler
	interval time.Duration
	fn       func()
	id       EventID
	kind     EventKind
	stopped  bool
	observer bool
}

func (t *Ticker) arm() {
	t.id = t.s.schedule(t.s.now+t.interval, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	}, nil, t.kind)
	if t.observer {
		ev := &t.s.slab[t.id.slot]
		ev.obs = true
		t.s.obsLive++
	}
}

// Stop prevents any future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.id.Cancel()
}

// less orders heap entries by (timestamp, insertion sequence).
//
//perf:noalloc
func (s *Scheduler) less(a, b int32) bool {
	ea, eb := &s.slab[a], &s.slab[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// heapPush inserts a slab index into the 4-ary heap.
//
//perf:noalloc
func (s *Scheduler) heapPush(idx int32) {
	s.heap = append(s.heap, idx)
	s.siftUp(len(s.heap) - 1)
}

//perf:noalloc
func (s *Scheduler) siftUp(i int) {
	h := s.heap
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

//perf:noalloc
func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.less(h[c], h[min]) {
				min = c
			}
		}
		if !s.less(h[min], h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// heapPop removes and returns the earliest entry.
//
//perf:noalloc
func (s *Scheduler) heapPop() int32 {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	s.heap = h[:n]
	if n > 0 {
		s.siftDown(0)
	}
	return top
}

// compact removes all dead events from the queue — lone entries, group
// members and the open group alike — in one O(n) pass and rebuilds heap
// order, bounding the queue by the live event count even under
// cancel-heavy workloads (retry timers rescheduled on every delivery).
//
//perf:noalloc
func (s *Scheduler) compact() {
	n := 0
	live := s.heap[:0]
	for _, idx := range s.heap {
		slot := s.slab[idx].grp
		if slot == 0 {
			if s.slab[idx].dead {
				s.release(idx)
				continue
			}
			live = append(live, idx)
			n++
			continue
		}
		gr := &s.groups.slots[slot]
		gr.members, gr.next = s.sweep(gr.members[:0], gr.members[gr.next:]), 0
		if len(gr.members) == 0 {
			s.groups.drop(slot)
			continue
		}
		live = append(live, gr.members[0])
		n += len(gr.members)
	}
	s.groups.open = s.sweep(s.groups.open[:0], s.groups.open)
	n += len(s.groups.open)
	s.heap, s.npend, s.ndead = live, n, 0
	// Bottom-up heapify: O(n), cheaper than n pushes.
	for i := (len(live) - 2) / 4; i >= 0; i-- {
		s.siftDown(i)
	}
}

// Step runs the single earliest pending event. It returns false when no
// events remain or the scheduler has been halted.
//
//perf:noalloc
func (s *Scheduler) Step() bool {
	for len(s.heap) > 0 && !s.halted {
		idx := s.pop()
		ev := &s.slab[idx]
		if ev.dead {
			s.ndead--
			s.release(idx)
			continue
		}
		s.now = ev.at
		s.nexec++
		if ev.obs {
			s.obsExec++
			s.obsLive--
		}
		fn, cb := ev.fn, ev.cb
		spanID := ev.span
		s.release(idx)
		if spanID != 0 {
			s.prof.EventRun(spanID, s.now)
		}
		if cb != nil {
			cb.Run()
		} else {
			fn()
		}
		if spanID != 0 {
			s.prof.EventDone()
		}
		return true
	}
	return false
}

// Run executes events until the queue is empty or Halt is called. It
// returns the number of events executed.
func (s *Scheduler) Run() uint64 {
	start := s.nexec
	for s.Step() {
	}
	return s.nexec - start
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (if it is ahead of the last event). Events scheduled
// after the deadline stay queued.
func (s *Scheduler) RunUntil(deadline Time) {
	for len(s.heap) > 0 && !s.halted {
		idx := s.heap[0]
		ev := &s.slab[idx]
		if ev.dead {
			s.pop()
			s.ndead--
			s.release(idx)
			continue
		}
		if ev.at > deadline {
			break
		}
		s.Step()
	}
	if !s.halted && s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances the simulation by d of virtual time.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// Halt stops the event loop: Run/RunUntil/Step return immediately after the
// currently executing event finishes. Pending events stay queued.
func (s *Scheduler) Halt() { s.halted = true }

// Resume clears a previous Halt so the loop can continue.
func (s *Scheduler) Resume() { s.halted = false }
