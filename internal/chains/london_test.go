package chains

import (
	"testing"
	"time"

	"diablo/internal/chains/chain"
	"diablo/internal/types"
	"diablo/internal/wallet"
)

// London (EIP-1559) dynamics tests: Ethereum and Avalanche adjust their
// base fee per block; under-priced pre-signed transactions wait out fee
// spikes (§5.2).

func TestBaseFeeRisesUnderLoadAndFalls(t *testing.T) {
	sched, net := testNet(t, "ethereum", 4)
	if net.BaseFee() == 0 {
		t.Fatal("ethereum should start with a base fee")
	}
	initial := net.BaseFee()
	w := wallet.New(wallet.FastScheme{}, "london", 200)
	client := net.NewClient(0)
	net.Start()
	// Saturate blocks (5M gas / 21k = 238 txs per 12s block) for a while.
	for i := 0; i < 3000; i++ {
		i := i
		sched.At(time.Duration(i)*20*time.Millisecond, func() {
			tx := &types.Transaction{
				Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1,
				GasLimit: 21000, GasPrice: net.BaseFee() * 2,
			}
			w.Get(i % 200).SignNext(tx)
			client.Submit(tx, nil)
		})
	}
	sched.RunUntil(70 * time.Second)
	peak := net.BaseFee()
	if peak <= initial {
		t.Fatalf("base fee %d did not rise from %d under full blocks", peak, initial)
	}
	// Let the chain go idle; empty blocks walk the fee back to the floor.
	sched.RunUntil(sched.Now() + 600*time.Second)
	net.Stop()
	if net.BaseFee() != initial {
		t.Fatalf("base fee %d did not return to the %d floor when idle", net.BaseFee(), initial)
	}
}

func TestUnderpricedTransactionWaitsForFeeToFall(t *testing.T) {
	sched, net := testNet(t, "ethereum", 4)
	w := wallet.New(wallet.FastScheme{}, "london-stuck", 200)
	client := net.NewClient(0)
	decidedCheap := false
	var cheapID types.Hash
	client.OnDecided = func(sub chain.Submission, _ types.ExecStatus, _ time.Duration) {
		if sub.ID() == cheapID {
			decidedCheap = true
		}
	}
	net.Start()
	// Drive the fee up with well-priced traffic.
	for i := 0; i < 2000; i++ {
		i := i
		sched.At(time.Duration(i)*20*time.Millisecond, func() {
			tx := &types.Transaction{
				Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1,
				GasLimit: 21000, GasPrice: net.BaseFee() * 4,
			}
			w.Get(i%199 + 1).SignNext(tx)
			client.Submit(tx, nil)
		})
	}
	// At the congestion peak, submit a transaction pre-signed at the
	// original (now too low) fee.
	floor := net.BaseFee()
	sched.At(30*time.Second, func() {
		if net.BaseFee() <= floor {
			t.Error("fee did not rise before the cheap submission")
		}
		tx := &types.Transaction{
			Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1,
			GasLimit: 21000, GasPrice: floor,
		}
		w.Get(0).SignNext(tx)
		cheapID = tx.ID()
		client.Submit(tx, nil)
	})
	sched.RunUntil(41 * time.Second)
	if decidedCheap {
		t.Fatal("underpriced transaction committed during the fee spike")
	}
	// After the spike the fee falls and the stuck transaction commits.
	sched.RunUntil(sched.Now() + 600*time.Second)
	net.Stop()
	if !decidedCheap {
		t.Fatalf("underpriced transaction never committed after the fee fell (fee=%d, floor=%d, pool=%d)",
			net.BaseFee(), floor, net.Pool.Len())
	}
}

func TestQuorumPredatesLondon(t *testing.T) {
	// The paper is explicit: Quorum "does not feature the more recent
	// London gas fee computation".
	_, net := testNet(t, "quorum", 4)
	if net.BaseFee() != 0 {
		t.Fatal("quorum should not have a dynamic base fee")
	}
	_, net2 := testNet(t, "avalanche", 4)
	if net2.BaseFee() == 0 {
		t.Fatal("avalanche should have a dynamic base fee")
	}
}
