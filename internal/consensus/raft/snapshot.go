package raft

import (
	"maps"
	"slices"

	"diablo/internal/snapshot"
)

// SnapshotState implements snapshot.Stater: term/leader position,
// commit index, and digests over in-flight replication and delivery
// state in sorted-height order.
func (e *Engine) SnapshotState(enc *snapshot.Encoder) {
	enc.Bool("stopped", e.stopped)
	enc.U64("term", e.term)
	enc.I64("leader", int64(e.leader))
	enc.I64("votes", int64(e.votes))
	enc.U64("commit_idx", e.commitIdx)
	enc.U64("elections", e.Elections)
	enc.U64("inflight", uint64(len(e.blocks)))

	h := snapshot.NewHash()
	for _, k := range slices.Sorted(maps.Keys(e.blocks)) {
		st := e.blocks[k]
		h.U64(k)
		h.I64(int64(st.acks))
		if st.done {
			h.U64(1)
		} else {
			h.U64(0)
		}
		h.Bools(st.seenB)
	}
	enc.U64("replication_digest", h.Sum())

	dh := snapshot.NewHash()
	for _, k := range slices.Sorted(maps.Keys(e.delivered)) {
		dh.U64(k)
		dh.Bools(e.delivered[k])
	}
	enc.U64("delivery_digest", dh.Sum())
}
