package span

import "diablo/internal/snapshot"

// SnapshotState implements snapshot.Stater: the id allocator position,
// emission counters and in-flight span counts. A resumed run fast-forwards from t=0 through the
// same deterministic event stream, so every field reconciles exactly at
// the checkpoint's virtual time.
func (r *Recorder) SnapshotState(e *snapshot.Encoder) {
	e.U64("next_id", r.next)
	e.U64("emitted", r.emitted)
	e.U64("dropped", r.dropped)
	e.U64("pending", uint64(len(r.pending)))
	e.U64("open", uint64(len(r.open)))
	e.U64("stack", uint64(len(r.stack)))
}
