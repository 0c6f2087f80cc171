package poh

import "diablo/internal/snapshot"

// SnapshotState implements snapshot.Stater: slot-clock position and the
// produced/skipped slot counters.
func (e *Engine) SnapshotState(enc *snapshot.Encoder) {
	enc.Bool("stopped", e.stopped)
	enc.U64("slot", e.slot)
	enc.U64("slots_done", e.Slots)
	enc.U64("skipped", e.SkippedSlots)
}
