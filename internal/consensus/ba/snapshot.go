package ba

import (
	"maps"
	"slices"

	"diablo/internal/snapshot"
)

// SnapshotState implements snapshot.Stater: round position, completion
// counters, and a digest over in-flight round state in sorted-round order.
func (e *Engine) SnapshotState(enc *snapshot.Encoder) {
	enc.Bool("stopped", e.stopped)
	enc.U64("round", e.round)
	enc.U64("rounds_done", e.Rounds)
	enc.U64("inflight", uint64(len(e.rounds)))
	h := snapshot.NewHash()
	for _, k := range slices.Sorted(maps.Keys(e.rounds)) {
		st := e.rounds[k]
		h.U64(k)
		h.Bools(st.blockSeen)
		h.Bools(st.softSent)
		h.Bools(st.certSent)
		h.Ints(st.softCount)
		h.Ints(st.certCount)
		st.HashDelivery(h)
	}
	enc.U64("state_digest", h.Sum())
}
