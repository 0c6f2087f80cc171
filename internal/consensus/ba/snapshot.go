package ba

import (
	"sort"

	"diablo/internal/snapshot"
)

// SnapshotState implements snapshot.Stater: round position, completion
// counters, and a digest over in-flight round state in sorted-round order.
func (e *Engine) SnapshotState(enc *snapshot.Encoder) {
	enc.Bool("stopped", e.stopped)
	enc.U64("round", e.round)
	enc.U64("rounds_done", e.Rounds)
	enc.U64("inflight", uint64(len(e.rounds)))
	keys := make([]uint64, 0, len(e.rounds))
	for k := range e.rounds {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := snapshot.NewHash()
	for _, k := range keys {
		st := e.rounds[k]
		h.U64(k)
		h.Bools(st.blockSeen)
		h.Bools(st.softSent)
		h.Bools(st.certSent)
		h.Ints(st.softCount)
		h.Ints(st.certCount)
		h.Bools(st.delivered)
		h.I64(int64(st.nDelivered))
	}
	enc.U64("state_digest", h.Sum())
}
