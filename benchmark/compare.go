package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x end-to-end metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictSimChanged = "sim-changed"
)

// verdict compares sample b against sample a of a lower-is-better metric
// whose median may worsen by at most bound (a share of a's median):
//
//   - worse: b's median is worse by more than the bound and the two min-max
//     ranges do not overlap;
//   - unresolved: the medians differ by more than the bound but the ranges
//     overlap, or either range is wider than the bound, so that "within the
//     bound" cannot be told from noise;
//   - ok: otherwise.
func verdict(a, b sample, bound float64) (delta float64, v string) {
	delta = ratio(b.Median-a.Median, a.Median)
	spread := max(ratio(a.Max-a.Min, a.Median), ratio(b.Max-b.Min, b.Median))
	overlap := a.Min <= b.Max && b.Min <= a.Max
	switch {
	case delta > bound && !overlap:
		return delta, verdictWorse
	case delta > bound || spread > bound:
		return delta, verdictUnresolved
	default:
		return delta, verdictOK
	}
}

// exactCounts are the per-layer metrics that are counts made by the
// simulation: at one seed they may not move at all unless the simulation
// itself changed.
func exactCounts() []string {
	names := []string{"mempool.depth_peak", "chain.executed", "chain.replayed"}
	for _, c := range sampledCounts {
		names = append(names, c.metric)
	}
	return names
}

// simChanged reports whether two results of one workload come from different
// simulations: their digests differ, or an exact count both carry differs.
func simChanged(a, b *workloadResult) bool {
	if a.Digest != b.Digest || a.Submitted != b.Submitted {
		return true
	}
	for _, name := range exactCounts() {
		va, okA := a.PerLayer[name]
		vb, okB := b.PerLayer[name]
		if okA && okB && va.Value != vb.Value {
			return true
		}
	}
	return false
}

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &runFile{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints, per workload x end-to-end metric, both medians, the
// delta, the bound and a verdict. It returns 1 when any verdict is "worse"
// or "sim-changed", and 0 otherwise: "unresolved" asks for more runs, it is
// not a failure.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var files [2]*runFile
	for i, path := range []string{pathA, pathB} {
		f, err := readRunFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		files[i] = f
	}
	return compareRuns(files[0], files[1], stdout)
}

func compareRuns(a, b *runFile, w io.Writer) int {
	fmt.Fprintf(w, "A: commit %s seed %d %s nproc=%d\nB: commit %s seed %d %s nproc=%d\n",
		a.Header.Commit, a.Header.Seed, a.Header.GoVersion, a.Header.NumCPU,
		b.Header.Commit, b.Header.Seed, b.Header.GoVersion, b.Header.NumCPU)
	if a.Header.Quick || b.Header.Quick {
		fmt.Fprintln(w, "QUICK SCALE: these numbers are not comparable with anything")
	}
	fmt.Fprintf(w, "%-14s %-14s %12s %12s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "delta", "bound", "verdict")
	byName := map[string]*workloadResult{}
	for _, res := range b.Workloads {
		byName[res.Name] = res
	}
	bad := 0
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Name]
		if !ok {
			continue
		}
		changed := a.Header.Seed == b.Header.Seed && simChanged(ra, rb)
		for _, d := range endToEnd {
			sa, okA := ra.EndToEnd[d.Name]
			sb, okB := rb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			delta, v := verdict(sa, sb, d.Bound)
			if changed {
				v = verdictSimChanged
			}
			if v == verdictWorse || v == verdictSimChanged {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-14s %12.4f %12.4f %+7.2f%% %5.0f%%  %s\n",
				ra.Name, d.Name, sa.Median, sb.Median, 100*delta, 100*d.Bound, v)
		}
		if ra.PerLayer != nil && rb.PerLayer != nil {
			v := verdictOK
			if changed {
				v = verdictSimChanged
				bad++
			}
			fmt.Fprintf(w, "%-14s %-14s %12s %12s %8s %6s  %s\n", ra.Name, "exact counts", "", "", "", "", v)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
