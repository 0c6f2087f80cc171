package bench

import (
	"fmt"
	"testing"
	"time"

	"diablo/internal/configs"
	"diablo/internal/types"
	"diablo/internal/wallet"
	"diablo/internal/workloads"
)

// benchAccount and benchTransfer keep the ablation benchmarks terse.

func newBenchAccount(ns string, i int) *wallet.Account {
	return wallet.NewAccount(wallet.FastScheme{}, []byte(fmt.Sprintf("bench-%s-%d", ns, i)))
}

func benchTransfer(acct *wallet.Account, nonce uint64) *types.Transaction {
	tx := &types.Transaction{
		Kind:     types.KindTransfer,
		To:       types.Address{1},
		Value:    1,
		GasLimit: 21000,
	}
	acct.SignNext(tx)
	return tx
}

// --- bench.Run unit tests ---

func TestRunValidation(t *testing.T) {
	if _, err := Run(Experiment{Chain: "quorum"}); err == nil {
		t.Fatal("missing config accepted")
	}
	if _, err := Run(Experiment{Chain: "quorum", Config: configs.Devnet}); err == nil {
		t.Fatal("missing traces accepted")
	}
	if _, err := Run(Experiment{
		Chain: "nope", Config: configs.Devnet,
		Traces: []*workloads.Trace{workloads.NativeConstant(1, time.Second)},
	}); err == nil {
		t.Fatal("unknown chain accepted")
	}
}

func TestRunDeterministicAcrossSeeds(t *testing.T) {
	run := func(seed int64) float64 {
		out, err := Run(Experiment{
			Chain:      "algorand",
			Config:     configs.Devnet,
			Traces:     []*workloads.Trace{workloads.NativeConstant(100, 20*time.Second)},
			Seed:       seed,
			Tail:       60 * time.Second,
			ScaleNodes: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out.Summary.ThroughputTPS
	}
	a1, a2 := run(7), run(7)
	if a1 != a2 {
		t.Fatalf("same seed diverged: %v vs %v", a1, a2)
	}
}

func TestTracesForAndScale(t *testing.T) {
	gafam, err := TracesFor("exchange")
	if err != nil || len(gafam) != 5 {
		t.Fatalf("gafam = %d traces, %v", len(gafam), err)
	}
	single, err := TracesFor("fifa98")
	if err != nil || len(single) != 1 {
		t.Fatalf("fifa = %d traces, %v", len(single), err)
	}
	if _, err := TracesFor("netflix"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	scaled := Scale(single, 0.5)
	if scaled[0].Total() >= single[0].Total() {
		t.Fatal("scaling did not reduce the trace")
	}
	same := Scale(single, 1)
	if same[0] != single[0] {
		t.Fatal("unit scale should be a no-op")
	}
}

func TestRunReportsDiagnostics(t *testing.T) {
	out, err := Run(Experiment{
		Chain:      "solana",
		Config:     configs.Devnet,
		Traces:     []*workloads.Trace{workloads.NativeConstant(50, 10*time.Second)},
		Seed:       1,
		Tail:       60 * time.Second,
		ScaleNodes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Blocks == 0 {
		t.Fatal("no blocks recorded")
	}
	if out.VirtualTime < 70*time.Second {
		t.Fatalf("virtual time %v too short", out.VirtualTime)
	}
	if out.WallTime <= 0 {
		t.Fatal("wall time missing")
	}
	if out.ExecutedTxs == 0 {
		t.Fatal("executed count missing")
	}
}

func TestPlacementRestrictsClients(t *testing.T) {
	// Restrict Secondaries to Tokyo; transactions must still commit, and
	// an unknown or undeployed region must error.
	out, err := Run(Experiment{
		Chain:     "quorum",
		Config:    configs.Devnet,
		Traces:    []*workloads.Trace{workloads.NativeConstant(20, 10*time.Second)},
		Seed:      1,
		Tail:      60 * time.Second,
		Locations: []string{"tokyo"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary.Committed != 200 {
		t.Fatalf("committed %d/200 via tokyo placement", out.Summary.Committed)
	}
	if _, err := Run(Experiment{
		Chain:     "quorum",
		Config:    configs.Testnet, // ohio only
		Traces:    []*workloads.Trace{workloads.NativeConstant(1, time.Second)},
		Locations: []string{"tokyo"},
	}); err == nil {
		t.Fatal("placement in an undeployed region accepted")
	}
	if _, err := Run(Experiment{
		Chain:     "quorum",
		Config:    configs.Devnet,
		Traces:    []*workloads.Trace{workloads.NativeConstant(1, time.Second)},
		Locations: []string{"mars"},
	}); err == nil {
		t.Fatal("unknown region accepted")
	}
}
