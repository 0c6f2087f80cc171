package bench_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diablo/internal/bench"
	"diablo/internal/configs"
	"diablo/internal/snapshot"
	"diablo/internal/spec"
	"diablo/internal/stream"
	"diablo/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from this build's runs")

const goldenFile = "testdata/golden.txt"

// goldenCell is one small experiment whose simulation output is pinned.
type goldenCell struct {
	name string
	exp  func(t *testing.T) bench.Experiment
}

// goldenCells cover the submit→commit path's branches: a deep never-drop
// pool (quorum × FIFA), TTL eviction and confirmation depth (solana),
// strict nonces with capacity and per-sender caps (diem), base-fee pricing
// with underpriced skips (ethereum), retries + faults + invariants (quorum
// under the chaos spec) and implicit stream senders (flash-mint). The three
// uber cells interpret every call (CacheAfter -1) on the geth profile and
// into the MoveVM and AVM budget aborts, pinning gas-driven block composition
// and abort counts across changes of the interpreters. The last four pin
// multicasts: the byzantine spec's replay window schedules stale sends
// inside broadcasts, and three chains vote or heartbeat all-to-all on the
// full 200-node consortium with every observer armed.
var goldenCells = []goldenCell{
	{"quorum-fifa-10s", func(t *testing.T) bench.Experiment {
		tr, err := workloads.ByName("fifa98")
		if err != nil {
			t.Fatal(err)
		}
		return bench.Experiment{
			Chain: "quorum", Config: configs.Consortium, ScaleNodes: 10,
			Traces: []*workloads.Trace{tr.Truncated(10 * time.Second)},
			Tail:   30 * time.Second, Seed: 1,
		}
	}},
	{"solana-native-ttl", func(t *testing.T) bench.Experiment {
		// Node 9 is cut off and crashed with its last few admissions still
		// pooled and invisible to every other leader: they outlive the 120 s
		// recent-blockhash TTL and are evicted, never committed.
		setup, err := spec.ParseSetup(`
blockchain: solana
configuration: devnet
faults:
  - partition: {sides: "0-8 | 9", at: 3s, for: 150s}
  - crash: {node: 9, at: 3s}
  - restart: {node: 9, at: 160s}
`)
		if err != nil {
			t.Fatal(err)
		}
		return bench.Experiment{
			Chain: setup.Chain, Config: setup.Config, Faults: setup.Faults,
			Traces: []*workloads.Trace{workloads.NativeConstant(2000, 4*time.Second)},
			Tail:   170 * time.Second, Seed: 2,
		}
	}},
	{"diem-native-caps", func(*testing.T) bench.Experiment {
		// 98 senders x the 100-per-sender cap is exactly the pool's capacity of
		// 9,800, so both limits reject; every rejection leaves a nonce gap
		// that stalls its sender's later transactions.
		cfg := *configs.Devnet
		cfg.Accounts = 98
		return bench.Experiment{
			Chain: "diem", Config: &cfg,
			Traces: []*workloads.Trace{workloads.NativeConstant(6000, 4*time.Second)},
			Tail:   60 * time.Second, Seed: 3,
		}
	}},
	{"ethereum-native-basefee", func(*testing.T) bench.Experiment {
		return bench.Experiment{
			Chain: "ethereum", Config: configs.Devnet,
			Traces: []*workloads.Trace{workloads.NativeConstant(400, 40*time.Second)},
			Tail:   120 * time.Second, Seed: 4,
		}
	}},
	{"quorum-chaos-retries", func(t *testing.T) bench.Experiment {
		src, err := os.ReadFile("../../specs/setup-quorum-chaos.yaml")
		if err != nil {
			t.Fatal(err)
		}
		setup, err := spec.ParseSetup(string(src))
		if err != nil {
			t.Fatal(err)
		}
		return bench.Experiment{
			Chain: setup.Chain, Config: setup.Config,
			Traces: []*workloads.Trace{workloads.NativeConstant(40, 230*time.Second)},
			Tail:   60 * time.Second, Seed: setup.Seed,
			Faults: setup.Faults, Retry: setup.Retry, Invariants: true,
		}
	}},
	{"quorum-stream-flash-mint", func(*testing.T) bench.Experiment {
		return bench.Experiment{
			Chain: "quorum", Config: configs.Consortium, ScaleNodes: 10,
			Streams: []stream.Config{{
				Scenario: "flash-mint", Clients: 20_000, Peak: 2000,
				Decay: 2 * time.Second, Duration: 3 * time.Second,
			}},
			Tail: 30 * time.Second, Seed: 5,
		}
	}},
	{"quorum-uber-interp", uberCell("quorum", 6)},
	{"diem-uber-abort", uberCell("diem", 7)},
	{"algorand-uber-abort", uberCell("algorand", 8)},
	{"quorum-byzantine", func(t *testing.T) bench.Experiment {
		src, err := os.ReadFile("../../specs/setup-quorum-byzantine.yaml")
		if err != nil {
			t.Fatal(err)
		}
		setup, err := spec.ParseSetup(string(src))
		if err != nil {
			t.Fatal(err)
		}
		return bench.Experiment{
			Chain: setup.Chain, Config: setup.Config, ScaleNodes: setup.NodeScale,
			Traces: []*workloads.Trace{workloads.NativeConstant(40, 70*time.Second)},
			Tail:   60 * time.Second, Seed: setup.Seed,
			Byzantine: setup.Byzantine, Invariants: setup.Invariants, InclusionHorizon: setup.InclusionHorizon,
		}
	}},
	{"quorum-n200", observedCell("quorum")},
	{"redbelly-n200", observedCell("redbelly")},
	{"quorum-raft-n200", observedCell("quorum-raft")},
}

// observedCell is a chain on the full 200-node consortium, where every IBFT
// and dBFT vote and every Raft vote request and heartbeat goes to 199 peers,
// with the metrics registry on, the span stream hashed as it is written and
// a checkpoint every virtual second. observedDigest folds what these
// observers wrote into the cell's digest.
func observedCell(chain string) func(*testing.T) bench.Experiment {
	return func(t *testing.T) bench.Experiment {
		return bench.Experiment{
			Chain: chain, Config: configs.Consortium,
			Traces: []*workloads.Trace{workloads.NativeConstant(20, 5*time.Second)},
			Tail:   10 * time.Second, Seed: 1,
			Metrics: true, Spans: sha256.New(),
			CheckpointEvery: time.Second, CheckpointDir: t.TempDir(),
		}
	}
}

// observedDigest extends an observedCell's sim digest with its metrics
// snapshot, the SHA-256 of its span stream and the SHA-256 of the checkpoint
// file taken at 3 s, while votes of several multicasts are in flight.
func observedDigest(t *testing.T, sim string, out *bench.Outcome) string {
	t.Helper()
	cp, err := os.ReadFile(filepath.Join(out.Experiment.CheckpointDir, snapshot.FileName(3*time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|%+v|%x|%x", sim, *out.Metrics, out.Experiment.Spans.(hash.Hash).Sum(nil), sha256.Sum256(cp))
	return hex.EncodeToString(h.Sum(nil))
}

// uberCell is the first second of the Uber trace with the gas cache off, the
// uber-exec benchmark workload in miniature.
func uberCell(chain string, seed int64) func(*testing.T) bench.Experiment {
	return func(t *testing.T) bench.Experiment {
		tr, err := workloads.ByName("uber-nyc")
		if err != nil {
			t.Fatal(err)
		}
		return bench.Experiment{
			Chain: chain, Config: configs.Consortium, ScaleNodes: 10, CacheAfter: -1,
			Traces: []*workloads.Trace{tr.Truncated(time.Second)},
			Tail:   10 * time.Second, Seed: seed,
		}
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	src, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate with: go test ./internal/bench -run TestGoldenSimDigests -update)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(src)), "\n") {
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[name] = digest
	}
	return want
}

// TestGoldenSimDigests pins the simulated outcome of thirteen small cells to
// digests recorded in testdata/golden.txt, so a refactor of the transaction
// path or the event loop is checked against recorded behaviour instead of re-derived
// expectations. An intended behaviour change regenerates the table with
// -update and shows up as a reviewed diff of that file.
func TestGoldenSimDigests(t *testing.T) {
	var want map[string]string
	if !*updateGolden {
		want = readGolden(t)
	}
	var table strings.Builder
	for _, c := range goldenCells {
		out, err := bench.Run(c.exp(t))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// Only the two budget-abort cells may commit nothing.
		done := out.Summary.Committed
		if strings.HasSuffix(c.name, "-uber-abort") {
			done += out.AbortedExec
		}
		if out.Summary.Submitted == 0 || done == 0 {
			t.Fatalf("%s: empty run (%d submitted, %d committed, %d aborted)", c.name, out.Summary.Submitted,
				out.Summary.Committed, out.AbortedExec)
		}
		got := out.Digest()
		if out.Experiment.CheckpointDir != "" {
			got = observedDigest(t, got, out)
		}
		fmt.Fprintf(&table, "%s %s\n", c.name, got)
		t.Logf("%s: submitted %d committed %d aborted %d dropped %d pool-dropped %d timed-out %d retries %d blocks %d wall %v",
			c.name, out.Summary.Submitted, out.Summary.Committed, out.AbortedExec, out.Dropped, out.PoolDropped,
			out.TimedOut, out.Retries, out.Blocks, out.WallTime.Round(time.Millisecond))
		if want != nil && got != want[c.name] {
			t.Errorf("%s: sim digest %s, golden %s", c.name, got, want[c.name])
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(table.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
