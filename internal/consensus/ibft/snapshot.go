package ibft

import (
	"maps"
	"slices"

	"diablo/internal/snapshot"
)

// SnapshotState implements snapshot.Stater: sequence position, round and
// timeout counters, and a digest over in-flight sequence state in sorted
// order.
func (e *Engine) SnapshotState(enc *snapshot.Encoder) {
	enc.Bool("stopped", e.stopped)
	enc.U64("seq", e.seq)
	enc.U64("rounds_done", e.Rounds)
	enc.U64("round_changes", e.RoundChanges)
	enc.Dur("timeout", e.timeout)
	enc.U64("inflight", uint64(len(e.states)))
	h := snapshot.NewHash()
	for _, k := range slices.Sorted(maps.Keys(e.states)) {
		st := e.states[k]
		h.U64(k)
		h.I64(int64(st.round))
		h.Bools(st.prepared)
		h.Bools(st.committedOut)
		h.Ints(st.prepareCount)
		h.Ints(st.commitCount)
		st.HashDelivery(h)
	}
	enc.U64("state_digest", h.Sum())
}
