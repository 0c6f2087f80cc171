package adversary

import (
	"diablo/internal/obs"
	"diablo/internal/sim"
	"diablo/internal/snapshot"
)

// numKinds is the number of behavior primitives.
const numKinds = len(kindNames)

// Engine applies a schedule to a deployment. Window transitions run as
// ordinary scheduler events (the same KindChaos lane the chaos engine
// uses), and the hook points the chain harness and consensus engines call
// read O(1) per-node activity flags, so the injection is part of the
// deterministic event order.
type Engine struct {
	sched *sim.Scheduler
	sch   *Schedule
	n     int

	// active[k][node] counts the open windows of behavior k on node
	// (windows may overlap).
	active [numKinds][]int
	// victims and censorLo/censorHi carry the most recently applied
	// window's parameters per node.
	victims            [][]int
	censorLo, censorHi []int

	// lastSize/lastPayload/lastSeq remember each node's previous outbound
	// protocol message for Replay. The payload itself is engine-internal
	// and not digestible; the sequence number and size are folded into the
	// snapshot digest instead.
	lastSize    []int
	lastPayload []any //lint:allow snapshotdrift adversary bookkeeping for equivocation dedup; process-local, not replay state
	lastSeq     []uint64

	// Counters. Applied counts window transitions (clears included); the
	// rest count hook-point effects.
	Applied       uint64
	Equivocations uint64 // conflicting proposals that could split commits
	Defended      uint64 // equivocations absorbed by quorum intersection
	Withheld      uint64 // votes dropped by WithholdVotes
	Corrupted     uint64 // outbound messages damaged by CorruptPayload
	Discarded     uint64 // corrupted messages detected and dropped by receivers
	Censored      uint64 // transactions skipped by a censoring proposer
	Replayed      uint64 // stale messages re-delivered by Replay

	tracer *obs.Tracer
	faults *obs.Counter
}

// Install schedules every behavior window of the schedule on the
// scheduler for a deployment of n nodes. The schedule should have been
// Validated against the deployment first.
func Install(sched *sim.Scheduler, nodes int, s *Schedule) *Engine {
	eng := &Engine{
		sched:       sched,
		sch:         s,
		n:           nodes,
		victims:     make([][]int, nodes),
		censorLo:    make([]int, nodes),
		censorHi:    make([]int, nodes),
		lastSize:    make([]int, nodes),
		lastPayload: make([]any, nodes),
		lastSeq:     make([]uint64, nodes),
	}
	for k := range eng.active {
		eng.active[k] = make([]int, nodes)
	}
	for _, e := range s.Events {
		e := e
		sched.AtKind(sim.KindChaos, e.At, func() { eng.apply(e) })
		if e.For > 0 {
			sched.AtKind(sim.KindChaos, e.At+e.For, func() { eng.clear(e) })
		}
	}
	return eng
}

// Instrument attaches a lifecycle tracer (byzantine window annotations)
// and a registry counter of window transitions. Either argument may be
// nil.
func (eng *Engine) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	eng.tracer = tr
	eng.faults = reg.Counter("adversary.faults")
}

// apply opens one behavior window.
func (eng *Engine) apply(e Event) {
	eng.Applied++
	eng.faults.Inc()
	if eng.tracer != nil {
		eng.tracer.Byzantine(eng.sched.Now(), "apply", e.String())
	}
	eng.active[e.Kind][e.Node]++
	switch e.Kind {
	case Equivocate:
		eng.victims[e.Node] = e.Victims
	case Censor:
		eng.censorLo[e.Node] = e.ClientLo
		eng.censorHi[e.Node] = e.ClientHi
	}
}

// clear closes a window whose For duration elapsed.
func (eng *Engine) clear(e Event) {
	eng.Applied++
	eng.faults.Inc()
	if eng.tracer != nil {
		eng.tracer.Byzantine(eng.sched.Now(), "clear", e.String())
	}
	if eng.active[e.Kind][e.Node] > 0 {
		eng.active[e.Kind][e.Node]--
	}
}

// Equivocating reports whether node is inside an Equivocate window.
func (eng *Engine) Equivocating(node int) bool {
	return eng.active[Equivocate][node] > 0
}

// ActiveEquivocators counts the nodes currently inside an Equivocate
// window — the f of the n + f >= 2q quorum-intersection test.
func (eng *Engine) ActiveEquivocators() int {
	f := 0
	for _, c := range eng.active[Equivocate] {
		if c > 0 {
			f++
		}
	}
	return f
}

// VictimsOf returns the peer set shown node's conflicting proposal: the
// scripted victim list, or the upper half of the deployment by default.
func (eng *Engine) VictimsOf(node int) []int {
	if v := eng.victims[node]; len(v) > 0 {
		return v
	}
	var out []int
	for i := eng.n / 2; i < eng.n; i++ {
		out = append(out, i)
	}
	return out
}

// NoteEquivocation records a conflicting proposal that can split commits.
func (eng *Engine) NoteEquivocation(node int) {
	eng.Equivocations++
	if eng.tracer != nil {
		eng.tracer.Byzantine(eng.sched.Now(), "equivocate", Event{Kind: Equivocate, Node: node}.String())
	}
}

// NoteDefended records an equivocation absorbed by quorum intersection.
func (eng *Engine) NoteDefended(node int) {
	eng.Defended++
	if eng.tracer != nil {
		eng.tracer.Byzantine(eng.sched.Now(), "defended", Event{Kind: Equivocate, Node: node}.String())
	}
}

// WithholdVote reports whether node drops its vote right now, counting
// the drop when it does.
func (eng *Engine) WithholdVote(node int) bool {
	if eng.active[WithholdVotes][node] == 0 {
		return false
	}
	eng.Withheld++
	return true
}

// CorruptOutbound reports whether node's outbound message is corrupted
// right now, counting the corruption when it is.
func (eng *Engine) CorruptOutbound(node int) bool {
	if eng.active[CorruptPayload][node] == 0 {
		return false
	}
	eng.Corrupted++
	return true
}

// NoteDiscarded records a receiver detecting and dropping a corrupted
// message.
func (eng *Engine) NoteDiscarded() { eng.Discarded++ }

// Censoring returns the inclusive origin-node range node censors right
// now (ok=false when node is not censoring).
func (eng *Engine) Censoring(node int) (lo, hi int, ok bool) {
	if eng.active[Censor][node] == 0 {
		return 0, 0, false
	}
	return eng.censorLo[node], eng.censorHi[node], true
}

// NoteCensored records one transaction skipped by a censoring proposer.
func (eng *Engine) NoteCensored() { eng.Censored++ }

// RecordOutbound remembers node's latest outbound protocol message so a
// Replay window can re-deliver it.
func (eng *Engine) RecordOutbound(node, size int, payload any) {
	eng.lastSize[node] = size
	eng.lastPayload[node] = payload
	eng.lastSeq[node]++
}

// ReplayOutbound returns the stale message node re-delivers ahead of its
// next send (ok=false when node is not replaying or has sent nothing yet).
func (eng *Engine) ReplayOutbound(node int) (payload any, size int, ok bool) {
	if eng.active[Replay][node] == 0 || eng.lastSeq[node] == 0 {
		return nil, 0, false
	}
	eng.Replayed++
	return eng.lastPayload[node], eng.lastSize[node], true
}

// Corrupted wraps a damaged outbound message; the chain harness discards
// it on receipt, modeling the receiver's validation path.
type Corrupted struct {
	Orig any
}

// SnapshotState implements snapshot.Stater. Counters plus a digest of the
// live window/replay state are captured, deliberately not the static
// schedule: two runs whose schedules differ diverge at the virtual-time
// window where the extra behavior first fires — which is what bisect
// should report — not at checkpoint zero.
func (eng *Engine) SnapshotState(e *snapshot.Encoder) {
	e.U64("applied", eng.Applied)
	e.U64("equivocations", eng.Equivocations)
	e.U64("defended", eng.Defended)
	e.U64("withheld", eng.Withheld)
	e.U64("corrupted", eng.Corrupted)
	e.U64("discarded", eng.Discarded)
	e.U64("censored", eng.Censored)
	e.U64("replayed", eng.Replayed)
	h := snapshot.NewHash()
	for k := range eng.active {
		h.Ints(eng.active[k])
	}
	for _, v := range eng.victims {
		h.Ints(v)
	}
	h.Ints(eng.censorLo)
	h.Ints(eng.censorHi)
	h.Ints(eng.lastSize)
	for _, s := range eng.lastSeq {
		h.U64(s)
	}
	e.U64("state_digest", h.Sum())
}
