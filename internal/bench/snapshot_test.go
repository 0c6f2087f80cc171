// Checkpoint/resume equivalence tests live in package bench_test so they
// can render real result JSON through internal/collect (which imports
// bench) without an import cycle.
package bench_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diablo/internal/bench"
	"diablo/internal/chains"
	"diablo/internal/chaos"
	"diablo/internal/collect"
	"diablo/internal/configs"
	"diablo/internal/snapshot"
	"diablo/internal/spec"
	"diablo/internal/workloads"
)

const ckInterval = 25 * time.Second

// chaosSpecExperiment builds the quorum-chaos run from the real spec
// files (setup-quorum-chaos.yaml + workload-native-10.yaml), with the
// JSONL trace directed into buf. Its fault schedule covers a crash
// outage (30s–90s), a partition (120s–140s) and link faults (160s–190s),
// so the 50s / 125s / 175s checkpoints land mid-crash, mid-partition and
// mid-link-fault respectively.
func chaosSpecExperiment(t *testing.T, buf *bytes.Buffer) bench.Experiment {
	t.Helper()
	setupSrc, err := os.ReadFile("../../specs/setup-quorum-chaos.yaml")
	if err != nil {
		t.Fatal(err)
	}
	setup, err := spec.ParseSetup(string(setupSrc))
	if err != nil {
		t.Fatal(err)
	}
	benchSrc, err := os.ReadFile("../../specs/workload-native-10.yaml")
	if err != nil {
		t.Fatal(err)
	}
	bm, err := spec.ParseBenchmark(string(benchSrc))
	if err != nil {
		t.Fatal(err)
	}
	traces, err := bm.Traces()
	if err != nil {
		t.Fatal(err)
	}
	h := snapshot.NewHash()
	h.Bytes(setupSrc)
	h.Bytes(benchSrc)
	return bench.Experiment{
		Chain:    setup.Chain,
		Config:   setup.Config,
		Traces:   traces,
		Seed:     setup.Seed,
		Tail:     180 * time.Second, // past the fault schedule (through 220s)
		Faults:   setup.Faults,
		Retry:    setup.Retry,
		Trace:    buf,
		Metrics:  true,
		SpecHash: h.Sum(),
	}
}

// runArtifacts executes one configured run and returns the two artifacts
// the determinism guarantee is stated over: the raw JSONL trace and the
// result JSON with wall_ms — the single wall-clock-dependent field —
// normalized to zero.
func runArtifacts(t *testing.T, mutate func(*bench.Experiment)) (trace, result []byte, out *bench.Outcome) {
	t.Helper()
	var buf bytes.Buffer
	exp := chaosSpecExperiment(t, &buf)
	mutate(&exp)
	out, err := bench.Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	rep := collect.FromOutcome(out, true)
	rep.Summary.WallMillis = 0
	var jb bytes.Buffer
	if err := collect.WriteJSON(&jb, rep, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), jb.Bytes(), out
}

// diffArtifacts fails with the first divergent trace line (or a JSON
// length diff) instead of a useless "bytes differ".
func diffArtifacts(t *testing.T, what string, a, b []byte) {
	t.Helper()
	if bytes.Equal(a, b) {
		return
	}
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range la {
		if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
			t.Fatalf("%s diverges at line %d:\n%s\n%s", what, i+1, la[i], lb[i])
		}
	}
	t.Fatalf("%s diverges in length: %d vs %d bytes", what, len(a), len(b))
}

// TestCheckpointResumeEquivalence is the PR's hard guarantee: (1) a
// checkpointed run's trace and result JSON are byte-identical to an
// uncheckpointed run's, and (2) resuming from checkpoints taken
// mid-crash (50s), mid-partition (125s) and mid-link-fault (175s)
// verifies against the stored state and again reproduces both artifacts
// byte-for-byte.
func TestCheckpointResumeEquivalence(t *testing.T) {
	baseTrace, baseResult, _ := runArtifacts(t, func(e *bench.Experiment) {})

	dirA := t.TempDir()
	recTrace, recResult, recOut := runArtifacts(t, func(e *bench.Experiment) {
		e.CheckpointEvery = ckInterval
		e.CheckpointDir = dirA
	})
	diffArtifacts(t, "checkpointed-run trace", baseTrace, recTrace)
	diffArtifacts(t, "checkpointed-run result JSON", baseResult, recResult)
	if len(recOut.Checkpoints) < 8 {
		t.Fatalf("only %d checkpoints written over a ~240s run at 25s cadence", len(recOut.Checkpoints))
	}
	if recOut.Verified != -1 {
		t.Fatalf("non-resuming run reports Verified=%s", recOut.Verified)
	}

	for _, vt := range []time.Duration{50 * time.Second, 125 * time.Second, 175 * time.Second} {
		vt := vt
		t.Run(vt.String(), func(t *testing.T) {
			cp := filepath.Join(dirA, snapshot.FileName(vt))
			if _, err := os.Stat(cp); err != nil {
				t.Fatalf("expected checkpoint missing: %v", err)
			}
			dirR := t.TempDir()
			resTrace, resResult, resOut := runArtifacts(t, func(e *bench.Experiment) {
				e.Resume = cp
				e.CheckpointDir = dirR // re-record so the runs can be bisected
			})
			if resOut.Verified != vt {
				t.Fatalf("Verified = %s, want %s", resOut.Verified, vt)
			}
			diffArtifacts(t, "resumed-run trace", baseTrace, resTrace)
			diffArtifacts(t, "resumed-run result JSON", baseResult, resResult)

			rep, err := snapshot.Bisect(dirA, dirR)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Identical || len(rep.Warnings) != 0 {
				t.Fatalf("recorded and resumed runs not digest-identical: %s", rep.Format())
			}
			if rep.Compared < 8 {
				t.Fatalf("bisect compared only %d checkpoints", rep.Compared)
			}
		})
	}
}

// TestResumeEveryEngine resumes each of the eight chains (one per consensus
// engine) from the checkpoint taken at 15 s, while node 1 is down, under the
// avalanche-crash golden cell's schedule. The resumed run must verify there,
// end with the recorded run's digest and re-record identical checkpoints.
func TestResumeEveryEngine(t *testing.T) {
	for _, name := range append(chains.Names(), chains.ExtensionNames()...) {
		t.Run(name, func(t *testing.T) {
			run := func(dir, resume string) *bench.Outcome {
				t.Helper()
				exp := faultCell(name, crashRestart)(t)
				exp.CheckpointEvery = 5 * time.Second
				exp.CheckpointDir = dir
				exp.Resume = resume
				out, err := bench.Run(exp)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			dirA, dirR := t.TempDir(), t.TempDir()
			rec := run(dirA, "")
			res := run(dirR, filepath.Join(dirA, snapshot.FileName(15*time.Second)))
			if res.Verified != 15*time.Second {
				t.Fatalf("Verified = %s, want 15s", res.Verified)
			}
			if got, want := res.Digest(), rec.Digest(); got != want {
				t.Fatalf("resumed digest %s, recorded %s", got, want)
			}
			rep, err := snapshot.Bisect(dirA, dirR)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Identical || len(rep.Warnings) != 0 {
				t.Fatalf("recorded and resumed runs not digest-identical: %s", rep.Format())
			}
		})
	}
}

// TestResumeRejectsMismatchedRun locks in the guard rails: wrong seed,
// wrong spec hash, and state tampered after recording must all refuse to
// resume — the last one naming the divergent subsystem and field.
func TestResumeRejectsMismatchedRun(t *testing.T) {
	dirA := t.TempDir()
	_, _, _ = runArtifacts(t, func(e *bench.Experiment) {
		e.CheckpointEvery = ckInterval
		e.CheckpointDir = dirA
	})
	cp := filepath.Join(dirA, snapshot.FileName(50*time.Second))

	var buf bytes.Buffer
	exp := chaosSpecExperiment(t, &buf)
	exp.Resume = cp
	exp.Seed++
	if _, err := bench.Run(exp); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed mismatch accepted: %v", err)
	}

	exp = chaosSpecExperiment(t, &buf)
	exp.Resume = cp
	exp.SpecHash = 0xbad
	if _, err := bench.Run(exp); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("spec-hash mismatch accepted: %v", err)
	}

	// Tamper with the recorded chain height and re-seal the file: the
	// resumed run must fail verification at 50s naming chain/height.
	f, err := snapshot.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	sec := f.Section("chain")
	if sec == nil {
		t.Fatal("checkpoint has no chain section")
	}
	fields, err := snapshot.DecodePayload(sec.Payload)
	if err != nil {
		t.Fatal(err)
	}
	e := snapshot.NewEncoder()
	for _, fd := range fields {
		if fd.Label == "height" {
			e.U64("height", fd.U+1000)
			continue
		}
		switch fd.Type {
		case snapshot.TU64:
			e.U64(fd.Label, fd.U)
		case snapshot.TI64:
			e.I64(fd.Label, fd.I)
		case snapshot.TDur:
			e.Dur(fd.Label, time.Duration(fd.I))
		case snapshot.TBool:
			e.Bool(fd.Label, fd.U != 0)
		case snapshot.TF64:
			e.F64(fd.Label, fd.F)
		case snapshot.TStr:
			e.Str(fd.Label, fd.S)
		case snapshot.TBytes:
			e.Bytes(fd.Label, fd.B)
		}
	}
	sec.Payload = e.Payload()
	sec.Digest = snapshot.Digest(sec.Payload)
	tampered, err := f.WriteFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	exp = chaosSpecExperiment(t, &buf)
	exp.Resume = tampered
	_, err = bench.Run(exp)
	if err == nil {
		t.Fatal("tampered checkpoint verified cleanly")
	}
	for _, want := range []string{`"chain"`, `"height"`, "50s"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
}

// TestBisectPinpointsInjectedDivergence runs two experiments whose fault
// schedules differ in exactly one parameter — the slowdown factor of the
// Slow event firing at t=100s — and requires bisect to localize the
// divergence to the (75s..100s] window with the WAN (simnet) among the
// divergent subsystems. The schedules contain the same events at the
// same times, so scheduler sequence numbers match and nothing can
// diverge before the altered fault actually fires.
func TestBisectPinpointsInjectedDivergence(t *testing.T) {
	run := func(dir string, slowFactor float64) {
		t.Helper()
		_, err := bench.Run(bench.Experiment{
			Chain:      "quorum",
			Config:     configs.Devnet,
			Traces:     []*workloads.Trace{workloads.NativeConstant(20, 60*time.Second)},
			Seed:       7,
			Tail:       90 * time.Second,
			ScaleNodes: 2,
			Faults: chaos.NewSchedule(
				chaos.Event{At: 20 * time.Second, Kind: chaos.Loss, AllLinks: true, Rate: 0.05, For: 20 * time.Second},
				chaos.Event{At: 100 * time.Second, Kind: chaos.Slow, Node: 1, Factor: slowFactor, For: 20 * time.Second},
			),
			CheckpointEvery: ckInterval,
			CheckpointDir:   dir,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	run(dirA, 3)
	run(dirB, 4)

	rep, err := snapshot.Bisect(dirA, dirB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identical {
		t.Fatal("runs with different slow factors reported identical")
	}
	if rep.WindowStart != 75*time.Second || rep.WindowEnd != 100*time.Second {
		t.Fatalf("window (%s .. %s], want (1m15s .. 1m40s]", rep.WindowStart, rep.WindowEnd)
	}
	var names []string
	foundSimnet := false
	for _, d := range rep.Divergent {
		names = append(names, d.Name)
		if d.Name == "simnet" {
			foundSimnet = true
		}
		if d.Name == "chaos" {
			t.Errorf("chaos section diverged (%s vs %s): the applied-count digest must not see equal-count schedules as different", d.ValueA, d.ValueB)
		}
	}
	if !foundSimnet {
		t.Fatalf("simnet not among divergent subsystems %v", names)
	}
}

// divergenceExperiment is the injected-divergence scenario of
// TestBisectPinpointsInjectedDivergence as a reusable Experiment value:
// the two runs differ only in the slowdown factor of the Slow fault
// firing at t=100s.
func divergenceExperiment(slowFactor float64, dir string) bench.Experiment {
	return bench.Experiment{
		Chain:      "quorum",
		Config:     configs.Devnet,
		Traces:     []*workloads.Trace{workloads.NativeConstant(20, 60*time.Second)},
		Seed:       7,
		Tail:       90 * time.Second,
		ScaleNodes: 2,
		Faults: chaos.NewSchedule(
			chaos.Event{At: 20 * time.Second, Kind: chaos.Loss, AllLinks: true, Rate: 0.05, For: 20 * time.Second},
			chaos.Event{At: 100 * time.Second, Kind: chaos.Slow, Node: 1, Factor: slowFactor, For: 20 * time.Second},
		),
		CheckpointEvery: ckInterval,
		CheckpointDir:   dir,
	}
}

// TestRefineBisectNarrowsWindow drives the full refinement loop: a coarse
// bisect localizes the injected divergence to a 25s window, then
// RefineBisect re-runs both experiments with a 5s cadence restricted to
// that window and narrows it to (95s..100s] — the event batch in which
// the altered fault actually fires. It also pins the window gating:
// refined runs write checkpoints only inside the coarse window.
func TestRefineBisectNarrowsWindow(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	if _, err := bench.Run(divergenceExperiment(3, dirA)); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.Run(divergenceExperiment(4, dirB)); err != nil {
		t.Fatal(err)
	}
	coarse, err := snapshot.Bisect(dirA, dirB)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Identical {
		t.Fatal("runs with different slow factors reported identical")
	}
	if coarse.WindowStart != 75*time.Second || coarse.WindowEnd != 100*time.Second {
		t.Fatalf("coarse window (%s .. %s], want (1m15s .. 1m40s]", coarse.WindowStart, coarse.WindowEnd)
	}
	if coarse.Interval != ckInterval {
		t.Fatalf("coarse interval %s, want %s", coarse.Interval, ckInterval)
	}

	fineA, fineB := t.TempDir(), t.TempDir()
	fine, err := bench.RefineBisect(divergenceExperiment(3, ""), divergenceExperiment(4, ""),
		coarse, 5*time.Second, fineA, fineB)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Identical {
		t.Fatal("refined runs reported identical")
	}
	if fine.WindowStart != 95*time.Second || fine.WindowEnd != 100*time.Second {
		t.Fatalf("refined window (%s .. %s], want (1m35s .. 1m40s]", fine.WindowStart, fine.WindowEnd)
	}
	for _, dir := range []string{fineA, fineB} {
		files, err := snapshot.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 6 {
			t.Fatalf("%d checkpoints in window, want 6 (75s..100s at 5s cadence)", len(files))
		}
		for _, f := range files {
			if f.Meta.VTime < 75*time.Second || f.Meta.VTime > 100*time.Second {
				t.Fatalf("checkpoint at %s outside the refinement window", f.Meta.VTime)
			}
		}
	}

	// Refining an identical pair is an error, not a silent no-op.
	if _, err := bench.RefineBisect(divergenceExperiment(3, ""), divergenceExperiment(3, ""),
		&snapshot.BisectReport{Identical: true}, 5*time.Second, t.TempDir(), t.TempDir()); err == nil {
		t.Fatal("refine of identical runs did not error")
	}
}
