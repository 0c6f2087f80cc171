package report

import (
	"fmt"
	"io"

	"diablo/internal/span"
)

// RenderSpans prints the span digest: aggregate critical-path attribution
// over committed transactions and blocks, the slowest transaction's full
// path.
func RenderSpans(w io.Writer, a *span.Analysis) {
	fmt.Fprintf(w, "spans: %s seed %d — %d spans, %d committed txs, %d blocks\n",
		a.Chain, a.Seed, a.Spans, a.Txs, a.Blocks)

	renderShares(w, "critical path, committed transactions (hops sum to commit latency)", a.TxShares)
	renderShares(w, "critical path, block intervals", a.BlkShares)

	if s := a.Slowest; s != nil {
		fmt.Fprintf(w, "\nslowest tx %s: %s (submitted %.2fs, committed %.2fs)\n",
			s.Tx, fmtDur(s.Latency), s.Submit.Seconds(), s.Commit.Seconds())
		renderPath(w, s.Path)
	}
}

// renderShares prints one aggregate attribution table (skipped when empty).
func renderShares(w io.Writer, title string, shares []span.SubsystemShare) {
	if len(shares) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s:\n", title)
	fmt.Fprintf(w, "  %-10s %12s %7s\n", "subsystem", "total", "share")
	for _, s := range shares {
		fmt.Fprintf(w, "  %-10s %12s %6.1f%%\n", s.Subsystem, fmtDur(s.Dur), s.Frac*100)
	}
}

// renderPath prints one critical path leaf-first, one hop per line.
func renderPath(w io.Writer, path []span.Contribution) {
	for _, c := range path {
		fmt.Fprintf(w, "    %10s  %-10s %s (node %d)\n", fmtDur(c.Dur), c.Subsystem, c.Label, c.Node)
	}
}

// RenderTxPaths prints every committed transaction's full critical path,
// in submission order.
func RenderTxPaths(w io.Writer, f *span.File) {
	paths := f.TxPaths()
	fmt.Fprintf(w, "%d committed transactions\n", len(paths))
	for i := range paths {
		p := &paths[i]
		fmt.Fprintf(w, "\ntx %s: %s (submitted %.2fs, committed %.2fs)\n",
			p.Tx, fmtDur(p.Latency), p.Submit.Seconds(), p.Commit.Seconds())
		renderPath(w, p.Path)
	}
}
