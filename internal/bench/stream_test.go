package bench_test

import (
	"bytes"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"diablo/internal/bench"
	"diablo/internal/configs"
	"diablo/internal/snapshot"
	"diablo/internal/stream"
	"diablo/internal/types"
	"diablo/internal/wallet"
)

// streamExperiment is a small quorum run driven purely by streams: a
// flash-crowd NFT mint plus DEX arbitrage bots, no trace workloads at all.
func streamExperiment(buf *bytes.Buffer) bench.Experiment {
	return bench.Experiment{
		Chain:  "quorum",
		Config: configs.Devnet,
		Streams: []stream.Config{
			{Scenario: "flash-mint", Clients: 600, Peak: 150, Decay: 5 * time.Second, Duration: 10 * time.Second},
			{Scenario: "dex-arb", Clients: 16, Rate: 40, AmountMax: 100, Duration: 10 * time.Second},
		},
		Seed:  5,
		Tail:  60 * time.Second,
		Trace: buf,
	}
}

func TestStreamRunCommits(t *testing.T) {
	var buf bytes.Buffer
	out, err := bench.Run(streamExperiment(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if out.DeployErr != nil {
		t.Fatalf("stream contracts failed to deploy: %v", out.DeployErr)
	}
	if out.Summary.Submitted == 0 {
		t.Fatal("streams submitted nothing")
	}
	// Every flash-mint client mints exactly once (peak·decay ≈ 750 > 600
	// clients, so the population drains) and the bots swap for 10s.
	if out.Summary.Submitted < 600 {
		t.Fatalf("expected the full mint crowd, submitted only %d", out.Summary.Submitted)
	}
	if out.Summary.Committed < out.Summary.Submitted*9/10 {
		t.Fatalf("only %d of %d stream transactions committed", out.Summary.Committed, out.Summary.Submitted)
	}
	if out.AbortedExec > 0 {
		t.Fatalf("%d stream transactions aborted execution", out.AbortedExec)
	}
	names := out.Result.Traces
	if len(names) != 2 || names[0] != "flash-mint" || names[1] != "dex-arb" {
		t.Fatalf("stream names missing from result traces: %v", names)
	}
}

// TestStreamByteIdenticalSerialVsWorkers is the determinism guarantee for
// streaming workloads: the same seeded cells produce byte-identical JSONL
// traces and equal summaries whether RunMany runs them serially or on a
// 4-worker pool.
func TestStreamByteIdenticalSerialVsWorkers(t *testing.T) {
	run := func(workers int) ([]*bytes.Buffer, []*bench.Outcome) {
		bufs := []*bytes.Buffer{{}, {}}
		exps := []bench.Experiment{streamExperiment(bufs[0]), streamExperiment(bufs[1])}
		exps[1].Seed = 6
		outs, err := bench.RunMany(workers, exps)
		if err != nil {
			t.Fatal(err)
		}
		return bufs, outs
	}
	serialBufs, serialOuts := run(1)
	parBufs, parOuts := run(4)
	for i := range serialBufs {
		if !bytes.Equal(serialBufs[i].Bytes(), parBufs[i].Bytes()) {
			t.Fatalf("cell %d: stream trace differs between serial and 4-worker runs", i)
		}
		if !reflect.DeepEqual(serialOuts[i].Summary, parOuts[i].Summary) {
			t.Fatalf("cell %d: summary differs: %+v vs %+v", i, serialOuts[i].Summary, parOuts[i].Summary)
		}
	}
	if bytes.Equal(serialBufs[0].Bytes(), serialBufs[1].Bytes()) {
		t.Fatal("different seeds produced identical stream traces")
	}
}

// TestStreamResumeReconciles proves the stream generators' cursors ride in
// checkpoints: a run resumed mid-stream fast-forwards, reconciles the
// stored "stream" section and finishes byte-identical to the original.
func TestStreamResumeReconciles(t *testing.T) {
	dir := t.TempDir()
	var orig bytes.Buffer
	exp := streamExperiment(&orig)
	exp.CheckpointEvery = 5 * time.Second
	exp.CheckpointDir = filepath.Join(dir, "a")
	out, err := bench.Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Checkpoints) < 2 {
		t.Fatalf("expected several checkpoints, got %v", out.Checkpoints)
	}
	// Resume from a checkpoint in the middle of stream emission (5s of a
	// 10s schedule), re-checkpointing into a fresh directory.
	var resumed bytes.Buffer
	exp2 := streamExperiment(&resumed)
	exp2.CheckpointEvery = 5 * time.Second
	exp2.CheckpointDir = filepath.Join(dir, "b")
	exp2.Resume = out.Checkpoints[0]
	out2, err := bench.Run(exp2)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Verified < 0 {
		t.Fatal("resume checkpoint was never reconciled")
	}
	if !bytes.Equal(orig.Bytes(), resumed.Bytes()) {
		t.Fatal("resumed stream run's trace differs from the original")
	}
	if !reflect.DeepEqual(out.Summary, out2.Summary) {
		t.Fatalf("resumed summary differs: %+v vs %+v", out.Summary, out2.Summary)
	}
}

// Budgets of the million-client generation pass. A wallet materialising the
// population alone would need hundreds of MB; the lazy pipeline's heap must
// not grow with it, and account derivation plus signing is a constant
// number of allocations per transaction.
const (
	streamHeapBudgetMB = 128
	streamAllocBudget  = 16
)

// streamPass is one full generation run: every implicit client of the
// flash-crowd scenario mints once, signed through the lazy wallet. It
// returns the digest over (client, nonce, signature), the transaction
// count, the allocations per transaction and the peak heap (sampled every
// 64Ki transactions).
func streamPass(t *testing.T, clients int) (digest uint64, txs int, allocsPerTx, peakHeapMB float64) {
	t.Helper()
	src, err := stream.Build(stream.Config{
		Scenario: "flash-mint",
		Clients:  uint64(clients),
		// Peak and decay only shape virtual timestamps; peak*decay > clients
		// guarantees the whole population drains.
		Peak:     float64(clients),
		Decay:    4 * time.Second,
		Duration: 60 * time.Second,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lazy := wallet.NewLazy(wallet.FastScheme{}, "perf/stream", 0)
	contract := types.Address{0xD0}
	h := snapshot.NewHash()
	var tx types.Transaction
	var it stream.Intent
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs0, peak := ms.Mallocs, ms.HeapAlloc
	for src.Next(&it) {
		tx = types.Transaction{Kind: types.KindInvoke, To: contract, Nonce: it.Nonce}
		lazy.Account(it.Client).Sign(&tx)
		h.U64(it.Client)
		h.U64(it.Nonce)
		h.Bytes(tx.Sig)
		txs++
		if txs&0xFFFF == 0 {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
		}
	}
	runtime.ReadMemStats(&ms)
	peak = max(peak, ms.HeapAlloc)
	return h.Sum(), txs, float64(ms.Mallocs-mallocs0) / float64(txs), float64(peak) / (1 << 20)
}

// TestMillionClientStreamBudgets streams a million implicit clients through
// the lazy wallet twice: peak heap and allocations per transaction stay
// inside constant budgets, and both passes sign the same transactions.
func TestMillionClientStreamBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a million signed transactions twice")
	}
	const clients = 1_000_000
	digest, txs, allocs, peakMB := streamPass(t, clients)
	if txs != clients {
		t.Fatalf("generated %d transactions for %d clients", txs, clients)
	}
	if peakMB > streamHeapBudgetMB {
		t.Errorf("peak heap %.1f MB exceeds the %d MB budget", peakMB, streamHeapBudgetMB)
	}
	if allocs > streamAllocBudget {
		t.Errorf("%.1f allocs/tx, budget %d", allocs, streamAllocBudget)
	}
	if again, txs2, _, _ := streamPass(t, clients); again != digest || txs2 != txs {
		t.Errorf("second pass diverged: digest %016x vs %016x, %d vs %d txs", again, digest, txs2, txs)
	}
	t.Logf("%d txs: %.2f allocs/tx, peak heap %.1f MB", txs, allocs, peakMB)
}
