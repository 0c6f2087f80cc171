package chain

import (
	"testing"
	"time"

	"diablo/internal/mempool"
	"diablo/internal/types"
	"diablo/internal/wallet"
)

// A retry of a transaction that is still pooled is "already known" at the
// node; the client keeps waiting, and once the transaction commits in a
// block its node never delivers, the next retry's duplicate answer is
// followed by the receipt poll that decides it.
func TestRetryOfPooledTxPollsReceipt(t *testing.T) {
	sched, net := deployTest(t, testParams(), 2)
	w := wallet.New(wallet.FastScheme{}, "retry", 2)
	c := net.NewClient(0)
	c.SetRetry(RetryPolicy{Timeout: 2 * time.Second, MaxRetries: 5, Backoff: 1})
	var decided, dropped int
	c.OnDecided = func(s Submission, status types.ExecStatus, _ time.Duration) {
		decided++
		if status != types.StatusOK {
			t.Errorf("decided with status %v", status)
		}
	}
	c.OnDropped = func(Submission, error, time.Duration) { dropped++ }

	tx := signedTransfer(w, 0)
	c.Submit(tx, nil)
	sched.RunFor(2500 * time.Millisecond) // admitted, then one retry: a duplicate
	if c.Retries != 1 || decided+dropped != 0 || net.Pool.Len() != 1 || c.Pending() != 1 {
		t.Fatalf("after the first retry: %d retries, %d decided, %d dropped, %d pooled, %d pending",
			c.Retries, decided, dropped, net.Pool.Len(), c.Pending())
	}
	if err := net.Nodes[0].SubmitTx(tx); err != mempool.ErrDuplicate {
		t.Fatalf("resubmitting a pooled transaction: err = %v, want duplicate", err)
	}
	if blk, _ := net.AssembleBlock(0, false); blk == nil || len(blk.Txs) != 1 {
		t.Fatal("the pooled transaction was not included")
	}
	// The block never reaches node 0: the next retry learns of the commit
	// from the receipt.
	sched.RunFor(2 * time.Second)
	if c.Retries != 2 || decided != 1 || dropped != 0 || c.Pending() != 0 {
		t.Fatalf("after the second retry: %d retries, %d decided, %d dropped, %d pending",
			c.Retries, decided, dropped, c.Pending())
	}
	if live := net.Pool.Txs().Live(); live != 1 {
		t.Fatalf("%d transactions hold a handle, want the committed one", live)
	}
}

// A committed transaction stays known to the network: submitting it again
// reports a duplicate instead of pooling and executing it twice.
func TestResubmitCommittedTxIsDuplicate(t *testing.T) {
	sched, net := deployTest(t, testParams(), 2)
	w := wallet.New(wallet.FastScheme{}, "recommit", 2)
	tx := signedTransfer(w, 0)
	if err := net.Nodes[1].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(time.Second)
	if blk, _ := net.AssembleBlock(0, false); blk == nil {
		t.Fatal("no block")
	}
	for i := range net.Nodes {
		if err := net.Nodes[i].SubmitTx(tx); err != mempool.ErrDuplicate {
			t.Fatalf("node %d: resubmitting a committed transaction: err = %v, want duplicate", i, err)
		}
	}
	if net.Pool.Len() != 0 || net.TotalCommittedTxs != 1 {
		t.Fatalf("%d pooled and %d committed after the resubmissions, want 0 and 1", net.Pool.Len(), net.TotalCommittedTxs)
	}
}

// Submissions to a crashed network are dropped (or retried until they time
// out), and a settled transaction leaves the pool's table: the table holds
// the submissions in flight, not every one ever made.
func TestCrashedNetworkReleasesHandles(t *testing.T) {
	for _, retry := range []RetryPolicy{{}, {Timeout: 100 * time.Millisecond, MaxRetries: 2}} {
		sched, net := deployTest(t, testParams(), 2)
		net.CrashNetwork()
		w := wallet.New(wallet.FastScheme{}, "crashed", 20)
		c := net.NewClient(0)
		c.SetRetry(retry)
		settled := 0
		c.OnDropped = func(Submission, error, time.Duration) { settled++ }
		c.OnTimeout = func(Submission, int, time.Duration) { settled++ }
		const batches, perBatch = 200, 10
		peak := 0
		for b := 0; b < batches; b++ {
			for i := 0; i < perBatch; i++ {
				c.Submit(signedTransfer(w, i), nil)
			}
			peak = max(peak, net.Pool.Txs().Live())
			sched.RunFor(10 * time.Millisecond)
		}
		sched.RunFor(time.Second)
		if settled != batches*perBatch || c.Pending() != 0 {
			t.Fatalf("retry %+v: %d of %d settled, %d pending", retry, settled, batches*perBatch, c.Pending())
		}
		if live := net.Pool.Txs().Live(); live != 0 {
			t.Fatalf("retry %+v: %d dropped transactions still hold a handle", retry, live)
		}
		// Without retries a batch settles before the next; with them, a
		// transaction waits 100 + 200 + 400 ms before it times out, while
		// 70 more batches arrive.
		if limit := perBatch * 71; peak > limit {
			t.Fatalf("retry %+v: %d transactions held a handle at once, want at most %d", retry, peak, limit)
		}
	}
}

// Without an observer attached, nothing on the submit path hashes a
// transaction that no block includes, pooled or dropped. ID caches on
// first use, so a transaction mutated after an early hash would go on
// reading its stale ID.
func TestUntracedSubmitHashesNothing(t *testing.T) {
	params := testParams()
	params.Mempool.Capacity = 1
	sched, net := deployTest(t, params, 2)
	w := wallet.New(wallet.FastScheme{}, "lazy", 2)
	c := net.NewClient(0)
	dropped := 0
	c.OnDropped = func(Submission, error, time.Duration) { dropped++ }
	pooled, full := signedTransfer(w, 0), signedTransfer(w, 1)
	c.Submit(pooled, nil)
	c.Submit(full, nil)
	sched.RunFor(time.Second)
	if net.Pool.Len() != 1 || dropped != 1 {
		t.Fatalf("%d pooled and %d dropped, want 1 and 1", net.Pool.Len(), dropped)
	}
	for _, tx := range []*types.Transaction{pooled, full} {
		tx.Value++ // not sealed again: an ID cached before this is stale
		fresh := *tx
		fresh.Seal(nil)
		if tx.ID() != fresh.ID() {
			t.Fatalf("the transaction with nonce %d was hashed on the untraced submit path", tx.Nonce)
		}
	}
}
