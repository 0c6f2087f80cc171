package bench

import (
	"fmt"
	"time"

	"diablo/internal/adversary"
	"diablo/internal/chains/chain"
	"diablo/internal/chaos"
	"diablo/internal/invariant"
	"diablo/internal/obs"
	"diablo/internal/sim"
	"diablo/internal/simnet"
	"diablo/internal/snapshot"
	"diablo/internal/span"
	"diablo/internal/stream"
)

// streamSection checkpoints every stream source's generator cursor as one
// opaque sub-payload per source; Reconcile then reports the diverged
// source by its positional label.
type streamSection []stream.Source

// SnapshotState implements snapshot.Stater.
func (s streamSection) SnapshotState(e *snapshot.Encoder) {
	e.U64("sources", uint64(len(s)))
	for i, src := range s {
		sub := snapshot.NewEncoder()
		src.SnapshotState(sub)
		e.Bytes(fmt.Sprintf("src%d_%s", i, src.Name()), sub.Payload())
	}
}

// ckState tracks a run's checkpoint recorder. All methods are safe on the
// nil receiver, which is the disabled (no checkpointing) state.
type ckState struct {
	recorder *snapshot.Recorder
	resumeAt time.Duration // virtual time the resume checkpoint expects
	resuming bool
	verified time.Duration
	failure  error
}

func (c *ckState) err() error {
	if c == nil {
		return nil
	}
	if c.failure != nil {
		return c.failure
	}
	if c.resuming && c.verified < 0 {
		return fmt.Errorf("bench: run ended before the resume checkpoint's virtual time %s was reached", c.resumeAt)
	}
	return nil
}

func (c *ckState) written() []string {
	if c == nil || c.recorder == nil {
		return nil
	}
	return c.recorder.Written
}

func (c *ckState) verifiedAt() time.Duration {
	if c == nil {
		return -1
	}
	return c.verified
}

// armCheckpoints wires the snapshot recorder into a run: section
// registration in a fixed order (sched, simnet, chaos, adversary, chain,
// pool, exec, clients, stream, engine, obs, invariant, spans — the order
// bisect reports subsystems in), a capture ticker, and — when resuming — reconciliation
// of the stored checkpoint against the fast-forwarded state at its
// virtual time. Returns nil state when checkpointing is disabled.
func armCheckpoints(e Experiment, sched *sim.Scheduler, wan *simnet.Network, chaosEng *chaos.Engine, advEng *adversary.Engine, mon *invariant.Monitor, net *chain.Network, reg *obs.Registry, spans *span.Recorder, sources []stream.Source) (*ckState, error) {
	interval := e.CheckpointEvery
	var resume *snapshot.File
	if e.Resume != "" {
		f, err := snapshot.ReadResolved(e.Resume)
		if err != nil {
			return nil, fmt.Errorf("bench: reading resume checkpoint: %w", err)
		}
		if f.Meta.Seed != e.Seed {
			return nil, fmt.Errorf("bench: resume checkpoint was recorded with seed %d, this run uses seed %d", f.Meta.Seed, e.Seed)
		}
		if e.SpecHash != 0 && f.Meta.SpecHash != 0 && f.Meta.SpecHash != e.SpecHash {
			return nil, fmt.Errorf("bench: resume checkpoint was recorded for a different spec (hash %016x vs %016x)", f.Meta.SpecHash, e.SpecHash)
		}
		if interval == 0 {
			interval = f.Meta.Interval
		}
		// The capture ticker is itself a scheduled event; a resumed run
		// must tick at the recording run's cadence or the event streams
		// (and with them the scheduler state) cannot match.
		if interval != f.Meta.Interval {
			return nil, fmt.Errorf("bench: checkpoint interval %s does not match the recording run's %s", interval, f.Meta.Interval)
		}
		resume = f
	}
	if interval <= 0 {
		return nil, nil
	}
	if e.CheckpointEvery > 0 && e.CheckpointDir == "" && e.Resume == "" {
		return nil, fmt.Errorf("bench: CheckpointEvery needs a CheckpointDir")
	}

	rec := snapshot.NewRecorder(snapshot.Meta{
		Seed:     e.Seed,
		SpecHash: e.SpecHash,
		Interval: interval,
		Chain:    e.Chain,
	}, e.CheckpointDir)
	// Sections that did not change since the previous capture (a quiet
	// chaos or adversary engine, a drained pool) are stored as digests
	// only, resolved against the preceding checkpoint on read.
	rec.Delta = true
	rec.Register("sched", sched)
	rec.Register("simnet", wan)
	if chaosEng != nil {
		rec.Register("chaos", chaosEng)
	}
	if advEng != nil {
		rec.Register("adversary", advEng)
	}
	rec.Register("chain", net)
	rec.Register("pool", net.Pool)
	rec.Register("exec", net.Exec)
	rec.Register("clients", snapshot.StateFunc(net.SnapshotClients))
	if len(sources) > 0 {
		rec.Register("stream", streamSection(sources))
	}
	// Engine state rides along when the consensus engine opts in; a
	// third-party engine without SnapshotState still checkpoints through
	// the chain/pool/exec sections.
	if st, ok := net.Engine().(snapshot.Stater); ok {
		rec.Register("engine", st)
	}
	if reg != nil {
		rec.Register("obs", reg)
	}
	if mon != nil {
		rec.Register("invariant", mon)
	}
	if spans != nil {
		rec.Register("spans", spans)
	}

	c := &ckState{recorder: rec, verified: -1, resuming: resume != nil}
	if resume != nil {
		c.resumeAt = resume.Meta.VTime
	}
	// The capture ticker is an observer event: it runs deterministically
	// like any other event, but stays invisible to the sched.* gauges the
	// metrics registry samples, so arming it cannot change the trace.
	// Window bounds gate only the file writes below, never the tick
	// itself, so narrowing the window cannot change the trajectory either.
	writeDir := e.CheckpointDir != ""
	sched.EveryObserver(interval, func() {
		if c.failure != nil {
			return
		}
		now := sched.Now()
		if resume != nil && now == resume.Meta.VTime {
			if err := rec.Verify(resume); err != nil {
				c.failure = err
				sched.Halt()
				return
			}
			c.verified = now
		}
		if now < e.CheckpointFrom || (e.CheckpointUntil > 0 && now > e.CheckpointUntil) {
			return
		}
		if writeDir {
			if _, err := rec.WriteCheckpoint(now); err != nil {
				c.failure = fmt.Errorf("bench: writing checkpoint: %w", err)
				sched.Halt()
				return
			}
			if err := rec.Prune(e.CheckpointKeep); err != nil {
				c.failure = err
				sched.Halt()
			}
		}
	})
	return c, nil
}
