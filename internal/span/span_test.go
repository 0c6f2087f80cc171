package span

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"diablo/internal/sim"
	"diablo/internal/snapshot"
	"diablo/internal/types"
)

// TestNilRecorderSafeAndFree is the disabled fast path: every hook must be
// a no-op on a nil receiver, and the hot-path hooks (the ones sitting on
// the scheduler, simnet and client hot loops) must not allocate — spans
// off must cost nothing.
func TestNilRecorderSafeAndFree(t *testing.T) {
	var r *Recorder
	tx := types.Hash{1, 2, 3}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Hint("net.deliver", 1)
		id := r.EventScheduled(sim.KindDelivery, 0)
		r.EventRun(id, 0)
		r.Point(0, "x", 0)
		r.PointTx(0, LabelSubmit, 0, tx)
		r.PointBlock(0, LabelBlock, 0, 1)
		r.Annotate(r.Begin(0, "consensus.round", 0, 1), 0, "consensus.propose", 0)
		r.End(0, 0)
		r.FrameEnter("exec.apply")
		r.FrameExit()
		r.EventDone()
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder hooks allocate %.2f objects/op, want 0", allocs)
	}
	if r.Emitted() != 0 || r.Err() != nil {
		t.Fatal("nil recorder reports activity")
	}
	r.Finish()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.FlushWall(); err != nil {
		t.Fatal(err)
	}
}

// record drives one synthetic run through the profiler interface: an event
// chain submit → deliver → commit with anchors, one consensus round with
// phases. Returns the parsed file.
func record(t *testing.T) (*File, []byte) {
	t.Helper()
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	r.Meta("quorum", 7, 4)
	tx := types.Hash{0xab, 0xcd}

	// Client event: runs at 10ms, emits the submit anchor, schedules a
	// delivery.
	ev1 := r.EventScheduled(sim.KindClient, 0)
	r.EventRun(ev1, 10*time.Millisecond)
	r.PointTx(10*time.Millisecond, LabelSubmit, 0, tx)
	r.Hint("net.deliver", 2)
	ev2 := r.EventScheduled(sim.KindDelivery, 10*time.Millisecond)
	r.EventDone()

	// Delivery runs at 25ms: admit anchor, a consensus round opens and
	// closes with phase annotations, then the commit anchor.
	r.EventRun(ev2, 25*time.Millisecond)
	r.PointTx(25*time.Millisecond, LabelAdmit, 2, tx)
	round := r.Begin(25*time.Millisecond, "consensus.round", 1, 3)
	r.Annotate(round, 25*time.Millisecond, "consensus.propose", 1)
	r.Annotate(round, 30*time.Millisecond, "consensus.vote", 2)
	r.End(round, 40*time.Millisecond)
	r.PointTx(40*time.Millisecond, LabelCommit, 0, tx)
	r.PointBlock(40*time.Millisecond, LabelBlock, 1, 1)
	r.EventDone()

	r.Finish()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return f, buf.Bytes()
}

func TestRecorderCausalTreeRoundTrip(t *testing.T) {
	f, raw := record(t)
	if f.Chain != "quorum" || f.Seed != 7 || f.Nodes != 4 {
		t.Fatalf("meta = %q/%d/%d", f.Chain, f.Seed, f.Nodes)
	}
	// Every span's parent must already have appeared (emission order is
	// parent-before-event-children; interval spans may close late but
	// their children reference them by id, which Lookup resolves).
	byLabel := map[string]Span{}
	for _, s := range f.Spans {
		byLabel[s.Label] = s
	}
	submit, commit := byLabel[LabelSubmit], byLabel[LabelCommit]
	deliver := byLabel["net.deliver"]
	if deliver.Start != 10*time.Millisecond || deliver.End != 25*time.Millisecond {
		t.Fatalf("delivery span [%v,%v], want [10ms,25ms]", deliver.Start, deliver.End)
	}
	if deliver.Node != 2 {
		t.Fatalf("delivery hint node %d, want 2", deliver.Node)
	}
	if submit.Parent == 0 || commit.Parent != deliver.ID {
		t.Fatalf("commit parent %d, want delivery %d", commit.Parent, deliver.ID)
	}
	round := byLabel["consensus.round"]
	if round.View != 3 || round.Dur() != 15*time.Millisecond {
		t.Fatalf("round view %d dur %v", round.View, round.Dur())
	}
	if byLabel["consensus.vote"].Parent != round.ID {
		t.Fatal("phase annotation not parented to its round")
	}
	// Field order is fixed: the span line starts {"t":...,"kind":"span",
	// "id":... — a schema, not map iteration.
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if bytes.Contains(line, []byte(`"kind":"span"`)) && !bytes.HasPrefix(line, []byte(`{"t":`)) {
			t.Fatalf("span record does not lead with t: %s", line)
		}
	}
}

func TestRecorderDeterministicBytes(t *testing.T) {
	_, a := record(t)
	_, b := record(t)
	if !bytes.Equal(a, b) {
		t.Fatal("identical recordings produced different bytes")
	}
}

// TestCriticalPathZeroResidual is the package's core arithmetic claim:
// per-tx contributions partition [submit, commit] exactly — they sum to
// the commit latency with zero residual, including when the causal chain
// is shorter than the latency window (the remainder folds into the oldest
// hop).
func TestCriticalPathZeroResidual(t *testing.T) {
	f, _ := record(t)
	paths := f.TxPaths()
	if len(paths) != 1 {
		t.Fatalf("%d tx paths, want 1", len(paths))
	}
	p := paths[0]
	if p.Latency != 30*time.Millisecond {
		t.Fatalf("latency %v, want 30ms", p.Latency)
	}
	var sum time.Duration
	for _, c := range p.Path {
		sum += c.Dur
	}
	if sum != p.Latency {
		t.Fatalf("critical path sums to %v, latency is %v (residual %v)", sum, p.Latency, p.Latency-sum)
	}
	// Block paths partition inter-block intervals the same way.
	for _, bp := range f.BlockPaths() {
		var bsum time.Duration
		for _, c := range bp.Path {
			bsum += c.Dur
		}
		if bsum != bp.Interval {
			t.Fatalf("block %d path sums to %v, interval is %v", bp.Block, bsum, bp.Interval)
		}
	}
	// Subsystem attribution covers the same total.
	a := Analyze(f)
	var agg time.Duration
	for _, s := range a.TxShares {
		agg += s.Dur
	}
	if agg != p.Latency {
		t.Fatalf("subsystem shares sum to %v, want %v", agg, p.Latency)
	}
}

func TestEventCancelledLeavesNoRecord(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	id := r.EventScheduled(sim.KindTick, 0)
	r.EventCancelled(id)
	r.EventRun(id, time.Second) // stale run of a cancelled id: ignored
	r.Finish()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.Emitted() != 0 || buf.Len() != 0 {
		t.Fatalf("cancelled event emitted %d records: %q", r.Emitted(), buf.String())
	}
}

func TestObserverEventsUntracked(t *testing.T) {
	r := NewRecorder(nil)
	r.Hint("checkpoint.capture", 0)
	if id := r.EventScheduled(sim.KindObserver, 0); id != 0 {
		t.Fatalf("observer event got span id %d", id)
	}
	// The hint must have been consumed, not leak onto the next event.
	id := r.EventScheduled(sim.KindConsensus, 0)
	r.EventRun(id, time.Millisecond)
	var buf bytes.Buffer
	r2 := NewRecorder(&buf)
	id2 := r2.EventScheduled(sim.KindConsensus, 0)
	r2.EventRun(id2, time.Millisecond)
	if err := r2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"label":"consensus.step"`) {
		t.Fatalf("consensus event mislabeled: %s", buf.String())
	}
}

func TestWriteFoldedSelfTimes(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	// Parent event [0 → 10ms]; child delivery scheduled at 10ms, running
	// at 14ms. Child total = 4ms, so parent self = 10ms − 4ms = 6ms.
	ev := r.EventScheduled(sim.KindConsensus, 0)
	r.EventRun(ev, 10*time.Millisecond)
	r.Hint("net.deliver", 1)
	child := r.EventScheduled(sim.KindDelivery, 10*time.Millisecond)
	r.EventDone()
	r.EventRun(child, 14*time.Millisecond)
	r.EventDone()
	r.Finish()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var folded bytes.Buffer
	if err := f.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	want := "consensus.step 6000000\nconsensus.step;net.deliver 4000000\n"
	if folded.String() != want {
		t.Fatalf("folded stacks:\n%q\nwant:\n%q", folded.String(), want)
	}
}

func TestWallSidecarFoldsFrames(t *testing.T) {
	var spans, wall bytes.Buffer
	r := NewRecorder(&spans)
	r.EnableWall(&wall)
	ev := r.EventScheduled(sim.KindConsensus, 0)
	r.EventRun(ev, time.Millisecond)
	r.FrameEnter("exec.apply")
	busy := 0
	for i := 0; i < 1000; i++ {
		busy += i
	}
	_ = busy
	r.FrameExit()
	r.EventDone()
	if err := r.FlushWall(); err != nil {
		t.Fatal(err)
	}
	out := wall.String()
	if !strings.Contains(out, "consensus.step;exec.apply ") {
		t.Fatalf("wall profile missing nested frame:\n%s", out)
	}
	// The sidecar never contaminates the deterministic span stream.
	if strings.Contains(spans.String(), "exec.apply") {
		t.Fatal("wall frame leaked into the span file")
	}
}

func TestSnapshotReconciles(t *testing.T) {
	drive := func(extra bool) *Recorder {
		r := NewRecorder(nil)
		id := r.EventScheduled(sim.KindClient, 0)
		r.EventRun(id, time.Millisecond)
		r.EventDone()
		if extra {
			r.EventScheduled(sim.KindClient, time.Millisecond)
		}
		return r
	}
	a, b := drive(false), drive(false)
	e := snapshot.NewEncoder()
	a.SnapshotState(e)
	dec, err := snapshot.NewDecoder(e.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Reconcile(b, dec); err != nil {
		t.Fatalf("identical recorders did not reconcile: %v", err)
	}
	c := drive(true)
	e2 := snapshot.NewEncoder()
	c.SnapshotState(e2)
	dec2, err := snapshot.NewDecoder(e2.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Reconcile(a, dec2); err == nil {
		t.Fatal("diverged recorders reconciled cleanly")
	}
}
