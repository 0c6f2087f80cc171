package hotstuff

import (
	"maps"
	"slices"

	"diablo/internal/snapshot"
)

// SnapshotState implements snapshot.Stater: pacemaker position, vote
// state, and a digest over the per-view proposal map in sorted-view order.
func (e *Engine) SnapshotState(enc *snapshot.Encoder) {
	enc.Bool("stopped", e.stopped)
	enc.U64("view", e.view)
	enc.U64("views_done", e.Views)
	enc.U64("last_non_empty", e.lastNonEmpty)
	enc.Bool("any_proposed", e.anyProposed)
	enc.I64("votes", int64(e.votes))
	enc.Dur("cur_timeout", e.curTimeout)
	h := snapshot.NewHash()
	h.Bools(e.voted)
	for _, k := range slices.Sorted(maps.Keys(e.blocks)) {
		h.U64(k)
		bh := e.blocks[k].Hash()
		h.Bytes(bh[:])
	}
	enc.U64("state_digest", h.Sum())
}
