package mempool

import "diablo/internal/snapshot"

// SnapshotState implements snapshot.Stater: admission counters plus a
// digest over the pending entries in FIFO order (the slice order is
// deterministic; the maps are only indexes over it).
func (p *Pool) SnapshotState(e *snapshot.Encoder) {
	e.U64("pending", uint64(len(p.entries)))
	e.U64("accepted", p.accepted)
	e.U64("dropped", p.dropped)
	h := snapshot.NewHash()
	for i := range p.entries {
		ent := &p.entries[i]
		id := ent.Tx.ID()
		h.Bytes(id[:])
		h.I64(int64(ent.Origin))
		h.Dur(ent.Seen)
	}
	e.U64("entries_digest", h.Sum())
}
