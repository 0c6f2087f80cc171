package snowball

import (
	"maps"
	"slices"

	"diablo/internal/snapshot"
)

// SnapshotState implements snapshot.Stater: sampling-loop position,
// acceptance counters, and a digest over in-flight round state in
// sorted-round order.
func (e *Engine) SnapshotState(enc *snapshot.Encoder) {
	enc.Bool("stopped", e.stopped)
	enc.U64("round", e.round)
	enc.U64("rounds_done", e.Rounds)
	enc.Dur("started_at", e.startedAt)
	enc.Bool("next_pending", e.nextPending)
	enc.U64("inflight", uint64(len(e.rounds)))
	h := snapshot.NewHash()
	for _, k := range slices.Sorted(maps.Keys(e.rounds)) {
		st := e.rounds[k]
		h.U64(k)
		h.Ints(st.confidence)
		st.HashDelivery(h)
	}
	enc.U64("state_digest", h.Sum())
}
