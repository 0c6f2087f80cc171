package obs

import (
	"math"

	"diablo/internal/snapshot"
)

// SnapshotState implements snapshot.Stater: sampled-row count plus a
// digest over every registered column's current value and the histogram
// state, in registration (column) order.
func (r *Registry) SnapshotState(e *snapshot.Encoder) {
	e.U64("columns", uint64(len(r.cols)+2*len(r.hists)))
	e.U64("rows", uint64(len(r.rows)))
	h := snapshot.NewHash()
	for _, c := range r.cols {
		h.Str(c.name)
		h.U64(math.Float64bits(c.read()))
	}
	for i, hist := range r.hists {
		h.Str(r.hnames[i])
		h.U64(hist.count)
		h.U64(math.Float64bits(hist.sum))
		for _, n := range hist.counts {
			h.U64(n)
		}
	}
	e.U64("values_digest", h.Sum())
}
