package clique

import "diablo/internal/snapshot"

// SnapshotState implements snapshot.Stater. Clique keeps no per-round
// state beyond its sealing ticker; the period pins the configuration and
// the chain section covers the ledger.
func (e *Engine) SnapshotState(enc *snapshot.Encoder) {
	enc.Bool("stopped", e.stopped)
	enc.Dur("period", e.period)
}
