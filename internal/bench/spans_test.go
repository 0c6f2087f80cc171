// Causal-span tests live in package bench_test for the same reason the
// checkpoint tests do: they compare real result JSON rendered through
// internal/collect, which imports bench.
package bench_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"diablo/internal/bench"
	"diablo/internal/snapshot"
	"diablo/internal/span"
)

// TestSpansDoNotPerturb is the house rule the whole span layer is built
// under: recording spans is pure observation. The trace and the result
// JSON of a spans-on run must be byte-identical to a spans-off run, and
// two same-seed spans-on runs must produce byte-identical span files.
func TestSpansDoNotPerturb(t *testing.T) {
	baseTrace, baseResult, _ := runArtifacts(t, func(e *bench.Experiment) {})

	var spansA, wallA bytes.Buffer
	onTrace, onResult, out := runArtifacts(t, func(e *bench.Experiment) {
		e.Spans = &spansA
		e.SpansWall = &wallA
	})
	diffArtifacts(t, "spans-on trace", baseTrace, onTrace)
	diffArtifacts(t, "spans-on result JSON", baseResult, onResult)
	if out.SpanRecords == 0 {
		t.Fatal("spans-on run emitted no span records")
	}
	if spansA.Len() == 0 || wallA.Len() == 0 {
		t.Fatalf("empty span artifacts: %d span bytes, %d wall bytes", spansA.Len(), wallA.Len())
	}

	var spansB bytes.Buffer
	_, _, _ = runArtifacts(t, func(e *bench.Experiment) { e.Spans = &spansB })
	diffArtifacts(t, "same-seed span file", spansA.Bytes(), spansB.Bytes())
}

// TestSpanCriticalPathZeroResidual is the acceptance claim on the real
// quorum-chaos run: for every committed transaction the critical-path
// hop durations sum to the commit latency exactly, and for every block
// interval to the inter-block gap exactly — attribution partitions the
// measured time, it does not approximate it.
func TestSpanCriticalPathZeroResidual(t *testing.T) {
	var spans bytes.Buffer
	_, _, _ = runArtifacts(t, func(e *bench.Experiment) { e.Spans = &spans })

	f, err := span.Read(bytes.NewReader(spans.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Spans) == 0 {
		t.Fatal("span file holds no spans")
	}
	paths := f.TxPaths()
	if len(paths) == 0 {
		t.Fatal("no committed transactions produced critical paths")
	}
	for _, p := range paths {
		var sum time.Duration
		for _, c := range p.Path {
			sum += c.Dur
		}
		if sum != p.Latency {
			t.Fatalf("tx %x: path sums to %v, commit latency is %v (residual %v)",
				p.Tx, sum, p.Latency, p.Latency-sum)
		}
	}
	blocks := f.BlockPaths()
	if len(blocks) == 0 {
		t.Fatal("no block intervals produced critical paths")
	}
	for _, bp := range blocks {
		var sum time.Duration
		for _, c := range bp.Path {
			sum += c.Dur
		}
		if sum != bp.Interval {
			t.Fatalf("block %d: path sums to %v, interval is %v", bp.Block, sum, bp.Interval)
		}
	}
	a := span.Analyze(f)
	if len(a.TxShares) == 0 || a.Txs != len(paths) {
		t.Fatalf("analysis digest inconsistent: %d shares, %d txs (want %d)", len(a.TxShares), a.Txs, len(paths))
	}
}

// TestSpanCheckpointResume proves the recorder's checkpoint section
// round-trips: a resumed run re-emits the identical span file, and the
// "spans" section verification (which would fail the run on divergence)
// passes at the resume point.
func TestSpanCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	var spansRec bytes.Buffer
	_, recResult, _ := runArtifacts(t, func(e *bench.Experiment) {
		e.Spans = &spansRec
		e.CheckpointEvery = ckInterval
		e.CheckpointDir = dir
	})

	cp := filepath.Join(dir, snapshot.FileName(50*time.Second))
	if _, err := os.Stat(cp); err != nil {
		t.Fatalf("expected checkpoint missing: %v", err)
	}
	var spansRes bytes.Buffer
	_, resResult, resOut := runArtifacts(t, func(e *bench.Experiment) {
		e.Spans = &spansRes
		e.Resume = cp
	})
	if resOut.Verified != 50*time.Second {
		t.Fatalf("Verified = %s, want 50s", resOut.Verified)
	}
	diffArtifacts(t, "resumed-run result JSON", recResult, resResult)
	diffArtifacts(t, "resumed-run span file", spansRec.Bytes(), spansRes.Bytes())
}

// TestMetricsRegistryResumeUnderDeltaCheckpoints pins the obs registry's
// SnapshotState reconciliation under the delta-encoded (v2) checkpoint
// format: resuming from a checkpoint whose obs section may be elided
// against its delta base must reproduce the exact metrics timeline.
func TestMetricsRegistryResumeUnderDeltaCheckpoints(t *testing.T) {
	dir := t.TempDir()
	_, _, recOut := runArtifacts(t, func(e *bench.Experiment) {
		e.CheckpointEvery = ckInterval
		e.CheckpointDir = dir
	})
	if recOut.Metrics == nil {
		t.Fatal("recorded run has no metrics snapshot")
	}

	// The 175s checkpoint (mid-link-fault, quiet run) must actually be
	// delta-encoded — a v2 file eliding sections against its delta base —
	// or the test would not exercise the elided-section restore path.
	cp := filepath.Join(dir, snapshot.FileName(175*time.Second))
	f, err := snapshot.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	if f.Meta.DeltaBase == 0 {
		t.Fatal("175s checkpoint is not delta-encoded")
	}
	elided := 0
	for _, s := range f.Sections {
		if s.Elided {
			elided++
		}
	}
	if elided == 0 {
		t.Fatal("delta checkpoint elides no sections")
	}

	_, _, resOut := runArtifacts(t, func(e *bench.Experiment) { e.Resume = cp })
	if resOut.Verified != 175*time.Second {
		t.Fatalf("Verified = %s, want 175s", resOut.Verified)
	}
	rec, err := json.Marshal(recOut.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	res, err := json.Marshal(resOut.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	diffArtifacts(t, "resumed-run metrics snapshot", rec, res)
}
