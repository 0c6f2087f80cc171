package ibft

import (
	"sort"

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
	keys := make([]uint64, 0, len(e.states))
	for k := range e.states {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := snapshot.NewHash()
	for _, k := range keys {
		st := e.states[k]
		h.U64(k)
		h.I64(int64(st.round))
		h.Bools(st.prepared)
		h.Bools(st.committedOut)
		h.Ints(st.prepareCount)
		h.Ints(st.commitCount)
		h.Bools(st.delivered)
		h.I64(int64(st.nDelivered))
	}
	enc.U64("state_digest", h.Sum())
}
