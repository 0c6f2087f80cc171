// Package snapshotdrift is a lint fixture: a checkpointed type gains a
// mutable field its capture never reads — the silent-drift shape — next to
// every legal shape: covered fields, constructor-only configuration,
// unencodable wiring, wiring exempt by exact type, and an audited
// exemption.
package snapshotdrift

import (
	"diablo/internal/obs"
	"diablo/internal/sim"
	"diablo/internal/snapshot"
)

// EventID looks like sim.EventID but is a different type: still state.
type EventID uint64

type Pool struct {
	depth     uint64      // covered: SnapshotState reads it
	dropped   uint64      // want `snapshotdrift: Pool.dropped is mutated \(.*Pool\)\.Drop\) but never read by SnapshotState`
	limit     int         // constructor-only: configuration, not state
	handler   func()      // unencodable wiring, skipped
	timeout   sim.EventID // pending-event handle, exempt by type
	tracer    *obs.Tracer // observer handle, exempt by type
	localEv   EventID     // want `snapshotdrift: Pool.localEv is mutated \(.*Pool\)\.Arm\) but never read by SnapshotState`
	debugSeen uint64      //lint:allow snapshotdrift debug counter, reporting only
}

// New is the constructor: stores here describe configuration.
func New(limit int) *Pool { return &Pool{limit: limit} }

func (p *Pool) Add() {
	p.depth++
	p.debugSeen++
}

func (p *Pool) Drop() {
	p.depth--
	p.dropped++
}

func (p *Pool) SetHandler(h func()) { p.handler = h }

func (p *Pool) SetTracer(t *obs.Tracer) { p.tracer = t }

func (p *Pool) Arm(id sim.EventID) {
	p.timeout = id
	p.localEv++
}

func (p *Pool) SnapshotState(e *snapshot.Encoder) {
	e.U64("depth", p.depth)
}
