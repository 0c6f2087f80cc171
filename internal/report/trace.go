package report

import (
	"fmt"
	"io"
	"strings"
	"time"

	"diablo/internal/obs"
)

// RenderTrace prints the "where time goes" view of a parsed trace: the
// run's shape, the latency attribution table over the committed
// transactions, the chaos fault and byzantine behavior timelines, the
// invariant violations, and the per-second metric timelines next to the
// submission/commit series.
func RenderTrace(w io.Writer, tr *obs.Trace, att *obs.Attribution) {
	fmt.Fprintf(w, "trace: %s seed %d — %d events, %d txs (%d committed, %d rejected, %d timed out, %d pending, %d retries), %d blocks, %d fault transitions\n",
		tr.Chain, tr.Seed, tr.Events, tr.Submitted, tr.Committed, tr.Rejected,
		tr.TimedOut, tr.Pending, tr.Retries, len(tr.Blocks), len(tr.Faults))

	if att != nil && att.Committed > 0 {
		fmt.Fprintf(w, "\nwhere time goes (%d committed txs):\n", att.Committed)
		fmt.Fprintf(w, "  %-10s %10s %10s %10s %7s\n", "component", "median", "p95", "mean", "share")
		for _, c := range att.Components {
			fmt.Fprintf(w, "  %-10s %10s %10s %10s %6.1f%%\n",
				c.Name, fmtDur(c.Median), fmtDur(c.P95), fmtDur(c.Mean), c.Share*100)
		}
		t := att.Total
		fmt.Fprintf(w, "  %-10s %10s %10s %10s %6.1f%%\n",
			t.Name, fmtDur(t.Median), fmtDur(t.P95), fmtDur(t.Mean), t.Share*100)
		fmt.Fprintf(w, "  unattributed residual: %.2f%% mean, %.2f%% max of per-tx latency\n",
			att.MeanResidualShare*100, att.MaxResidualShare*100)
	}

	if len(tr.Faults) > 0 {
		fmt.Fprintf(w, "\nfaults:\n")
		for _, f := range tr.Faults {
			fmt.Fprintf(w, "  %7.1fs  %-5s  %s\n", f.At.Seconds(), f.Phase, f.Note)
		}
	}
	if len(tr.Byzantine) > 0 {
		fmt.Fprintf(w, "\nbyzantine:\n")
		for _, b := range tr.Byzantine {
			fmt.Fprintf(w, "  %7.1fs  %-10s  %s\n", b.At.Seconds(), b.Phase, b.Note)
		}
	}
	if len(tr.Violations) > 0 {
		fmt.Fprintf(w, "\nviolations:\n")
		for _, v := range tr.Violations {
			fmt.Fprintf(w, "  %7.1fs  %-10s  height %d nodes %v  %s\n", v.At.Seconds(), v.Invariant, v.Height, v.Nodes, v.Detail)
		}
	}

	renderTimeline(w, tr)
}

// fmtDur renders a duration compactly with stable units.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d == 0:
		return "0"
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// renderTimeline prints the per-second submitted/committed series derived
// from the spans alongside the sampled metric columns.
func renderTimeline(w io.Writer, tr *obs.Trace) {
	// Per-second submission/commit counts from the spans.
	var maxT time.Duration
	for _, id := range tr.Order {
		s := tr.Spans[id]
		if s.Submit > maxT {
			maxT = s.Submit
		}
		if s.Commit > maxT {
			maxT = s.Commit
		}
	}
	for _, s := range tr.Samples {
		if s.At > maxT {
			maxT = s.At
		}
	}
	secs := int(maxT/time.Second) + 1
	if maxT == 0 || secs <= 0 {
		return
	}
	submitted := make([]int, secs)
	committed := make([]int, secs)
	for _, id := range tr.Order {
		s := tr.Spans[id]
		if s.Submit >= 0 && int(s.Submit/time.Second) < secs {
			submitted[s.Submit/time.Second]++
		}
		if s.Commit >= 0 && int(s.Commit/time.Second) < secs {
			committed[s.Commit/time.Second]++
		}
	}

	// Samples indexed by second (the registry samples once per second).
	sampleAt := make(map[int][]float64, len(tr.Samples))
	for _, s := range tr.Samples {
		sampleAt[int(s.At/time.Second)] = s.Vals
	}

	fmt.Fprintf(w, "\nper-second timeline:\n")
	cols := tr.MetricNames
	header := []string{"t(s)", "submit", "commit"}
	header = append(header, cols...)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
		if widths[i] < 6 {
			widths[i] = 6
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		b.Reset()
		b.WriteString(" ")
		for i, c := range cells {
			fmt.Fprintf(&b, " %*s", widths[i], c)
		}
		fmt.Fprintln(w, b.String())
	}
	writeRow(header)
	var prevVals []float64
	skipped := false
	for sec := 0; sec < secs; sec++ {
		vals, sampled := sampleAt[sec]
		// Skip fully idle seconds, and runs of idle-but-sampled seconds
		// whose metrics repeat the previous printed row exactly.
		idle := submitted[sec] == 0 && committed[sec] == 0
		if idle && (!sampled || floatsEqual(vals, prevVals)) {
			skipped = true
			continue
		}
		if skipped {
			writeRow([]string{"..."})
			skipped = false
		}
		if sampled {
			prevVals = vals
		}
		cells := []string{
			fmt.Sprintf("%d", sec),
			fmt.Sprintf("%d", submitted[sec]),
			fmt.Sprintf("%d", committed[sec]),
		}
		for i := range cols {
			if sampled && i < len(vals) {
				cells = append(cells, fmtVal(vals[i]))
			} else {
				cells = append(cells, "-")
			}
		}
		writeRow(cells)
	}
}

// floatsEqual reports element-wise equality of two sample rows.
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fmtVal renders a sampled metric value without trailing noise.
func fmtVal(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3g", v)
}
