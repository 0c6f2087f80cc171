package chaos

import (
	"diablo/internal/obs"
	"diablo/internal/sim"
	"diablo/internal/simnet"
	"diablo/internal/snapshot"
)

// Engine applies a schedule to a simulated WAN. All state changes run as
// ordinary scheduler events, so the injection is part of the deterministic
// event order.
type Engine struct {
	sched *sim.Scheduler
	wan   *simnet.Network
	sch   *Schedule

	// Applied counts fault applications (clearing expiries included).
	Applied int

	tracer *obs.Tracer
	faults *obs.Counter
}

// Instrument attaches a lifecycle tracer (fault annotation events) and a
// registry counter of fault transitions. Either argument may be nil.
func (eng *Engine) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	eng.tracer = tr
	eng.faults = reg.Counter("chaos.faults")
}

// SnapshotState implements snapshot.Stater. Only the applied-transition
// count is captured, deliberately not the static schedule: two runs whose
// schedules differ diverge at the virtual-time window where the extra
// fault first fires — which is what bisect should report — not at
// checkpoint zero.
func (eng *Engine) SnapshotState(e *snapshot.Encoder) {
	e.U64("applied", uint64(eng.Applied))
}

// Install schedules every event of the schedule on the scheduler. The
// schedule should have been Validated against the deployment first; node
// indices are resolved against the WAN when each event fires.
func Install(sched *sim.Scheduler, wan *simnet.Network, s *Schedule) *Engine {
	eng := &Engine{sched: sched, wan: wan, sch: s}
	for _, e := range s.Events {
		e := e
		sched.AtKind(sim.KindChaos, e.At, func() { eng.apply(e) })
		if e.For > 0 {
			sched.AtKind(sim.KindChaos, e.At+e.For, func() { eng.clear(e) })
		}
	}
	return eng
}

// apply puts one fault into effect.
func (eng *Engine) apply(e Event) {
	eng.Applied++
	eng.faults.Inc()
	if eng.tracer != nil {
		eng.tracer.Fault(eng.sched.Now(), "apply", e.String())
	}
	switch e.Kind {
	case Crash:
		eng.wan.Node(simnet.NodeID(e.Node)).Crash()
	case Restart:
		eng.wan.Node(simnet.NodeID(e.Node)).Restart()
	case Partition:
		sides := make(map[simnet.NodeID]int, len(e.Sides))
		for i, side := range e.Sides {
			for _, n := range side {
				sides[simnet.NodeID(n)] = i
			}
		}
		eng.wan.Partition(sides)
	case Heal:
		eng.wan.HealPartition()
	case Loss:
		eng.editLink(e, func(f *simnet.LinkFault) { f.Loss = e.Rate })
	case Delay:
		eng.editLink(e, func(f *simnet.LinkFault) {
			f.ExtraDelay = e.ExtraDelay
			f.Jitter = e.Jitter
		})
	case Bandwidth:
		eng.editLink(e, func(f *simnet.LinkFault) { f.BandwidthFactor = e.Factor })
	case Slow:
		eng.wan.SetNodeSlowdown(simnet.NodeID(e.Node), e.Factor)
	}
}

// clear reverts a fault whose For duration elapsed.
func (eng *Engine) clear(e Event) {
	eng.Applied++
	eng.faults.Inc()
	if eng.tracer != nil {
		eng.tracer.Fault(eng.sched.Now(), "clear", e.String())
	}
	switch e.Kind {
	case Crash:
		eng.wan.Node(simnet.NodeID(e.Node)).Restart()
	case Partition:
		eng.wan.HealPartition()
	case Loss:
		eng.editLink(e, func(f *simnet.LinkFault) { f.Loss = 0 })
	case Delay:
		eng.editLink(e, func(f *simnet.LinkFault) {
			f.ExtraDelay = 0
			f.Jitter = 0
		})
	case Bandwidth:
		eng.editLink(e, func(f *simnet.LinkFault) { f.BandwidthFactor = 0 })
	case Slow:
		eng.wan.SetNodeSlowdown(simnet.NodeID(e.Node), 1)
	}
}

func (eng *Engine) editLink(e Event, edit func(*simnet.LinkFault)) {
	if e.AllLinks {
		eng.wan.EditAllLinksFault(edit)
		return
	}
	eng.wan.EditLinkFault(e.LinkA, e.LinkB, edit)
}
