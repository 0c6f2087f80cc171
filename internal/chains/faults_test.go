package chains

import (
	"testing"
	"time"

	"diablo/internal/chains/chain"
	"diablo/internal/chaos"
	"diablo/internal/dapps"
	"diablo/internal/simnet"
	"diablo/internal/snapshot"
	"diablo/internal/types"
	"diablo/internal/wallet"
)

// Fault-injection tests: crashed replicas, injected message delays and
// network partitions. The paper's evaluation does not crash nodes, but the
// framework supports it (Blockbench-style fault metrics are listed in §7),
// and BFT chains must keep committing with up to f failures.

// TestIBFTToleratesMinorityCrashes crashes f non-leader replicas of a
// 10-node Quorum network (f = 3 for n = 10) and expects client
// transactions to keep committing.
func TestIBFTToleratesMinorityCrashes(t *testing.T) {
	sched, net := testNet(t, "quorum", 10)
	w := wallet.New(wallet.FastScheme{}, "crash-test", 10)
	client := net.NewClient(0) // collocated with a live node
	committed := 0
	client.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { committed++ }
	net.Start()
	// Crash replicas 7, 8, 9 (never the round-robin leaders for the
	// handful of blocks this test commits).
	for _, idx := range []int{7, 8, 9} {
		net.Nodes[idx].Sim.Crash()
	}
	for i := 0; i < 20; i++ {
		i := i
		sched.At(time.Duration(i)*200*time.Millisecond, func() {
			tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
			w.Get(i % 10).SignNext(tx)
			client.Submit(tx, nil)
		})
	}
	sched.RunUntil(120 * time.Second)
	net.Stop()
	if committed != 20 {
		t.Fatalf("committed %d/20 with f crashed replicas", committed)
	}
}

// TestInjectedMessageDelayStretchesLatency doubles down on the Clique
// message-delay sensitivity (the paper cites the Attack of the Clones
// result): injecting delay on every link must stretch commit latency by at
// least that amount.
func TestInjectedMessageDelayStretchesLatency(t *testing.T) {
	run := func(extra time.Duration) time.Duration {
		sched, net := testNet(t, "ethereum", 4)
		net.Net.SetExtraDelay(extra)
		w := wallet.New(wallet.FastScheme{}, "delay-test", 4)
		client := net.NewClient(0)
		var latency time.Duration
		var submitAt time.Duration
		client.OnDecided = func(_ chain.Submission, _ types.ExecStatus, at time.Duration) {
			latency = at - submitAt
		}
		net.Start()
		sched.After(time.Second, func() {
			tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(1).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
			w.Get(0).SignNext(tx)
			submitAt = sched.Now()
			client.Submit(tx, nil)
		})
		sched.RunUntil(300 * time.Second)
		net.Stop()
		if latency == 0 {
			t.Fatal("transaction never committed")
		}
		return latency
	}
	base := run(0)
	delayed := run(5 * time.Second)
	// Clique needs the block plus one confirmation; each crosses the
	// delayed network at least once.
	if delayed < base+5*time.Second {
		t.Fatalf("latency %v with 5s injected delay, base %v: delay not felt", delayed, base)
	}
}

// TestPartitionedClientStalls isolates one node: its client's submissions
// must not commit while partitioned, and must commit after healing.
func TestPartitionedClientStalls(t *testing.T) {
	sched, net := testNet(t, "quorum", 8)
	w := wallet.New(wallet.FastScheme{}, "part-test", 4)
	isolated := net.NewClient(7)
	committed := 0
	isolated.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { committed++ }
	net.Start()
	net.Net.Partition(map[simnet.NodeID]int{net.Nodes[7].Sim.ID: 1})

	tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(1).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
	w.Get(0).SignNext(tx)
	sched.After(time.Second, func() { isolated.Submit(tx, nil) })
	sched.RunUntil(60 * time.Second)
	if committed != 0 {
		t.Fatal("partitioned client's transaction committed across the partition")
	}

	net.Net.HealPartition()
	sched.RunUntil(180 * time.Second)
	net.Stop()
	if committed != 1 {
		t.Fatalf("transaction did not commit after healing (committed=%d, pool=%d)", committed, net.Pool.Len())
	}
}

// TestGasCacheFidelity compares a cached-execution run against a
// full-interpretation run of the same DApp workload: aggregate outcomes
// (commits, statuses, final counter state trajectory) must agree, and
// per-transaction gas must match exactly for the suite's input-independent
// functions.
func TestGasCacheFidelity(t *testing.T) {
	type runResult struct {
		committed int
		gasTotal  uint64
		counter   uint64
	}
	run := func(cacheAfter int) runResult {
		sched, net := testNet(t, "quorum", 4)
		net.Exec.CacheAfter = cacheAfter
		w := wallet.New(wallet.FastScheme{}, "cache-test", 10)
		d, _ := dapps.Get("fifa")
		compiled, err := d.Compile()
		if err != nil {
			t.Fatal(err)
		}
		deployer := wallet.NewAccount(wallet.FastScheme{}, []byte("primary"))
		contract, err := net.Exec.DeployContract(deployer.Address, compiled, d.InitFunc)
		if err != nil {
			t.Fatal(err)
		}
		client := net.NewClient(0)
		committed := 0
		client.OnDecided = func(_ chain.Submission, s types.ExecStatus, _ time.Duration) {
			if s == types.StatusOK {
				committed++
			}
		}
		net.Start()
		var ids []types.Hash
		for i := 0; i < 100; i++ {
			i := i
			sched.At(time.Duration(i)*50*time.Millisecond, func() {
				calldata, _ := compiled.Calldata("add")
				tx := &types.Transaction{
					Kind: types.KindInvoke, To: contract.Address,
					GasLimit: 1_000_000, Data: chain.EncodeInvokeData(calldata, 0),
				}
				w.Get(i % 10).SignNext(tx)
				ids = append(ids, tx.ID())
				client.Submit(tx, nil)
			})
		}
		sched.RunUntil(120 * time.Second)
		net.Stop()
		var gasTotal uint64
		for _, id := range ids {
			if r, ok := net.Receipt(id); ok {
				gasTotal += r.GasUsed
			}
		}
		return runResult{
			committed: committed,
			gasTotal:  gasTotal,
			counter:   contract.Storage.Load(0),
		}
	}
	full := run(0)   // interpret everything
	cached := run(4) // replay after 4 warm calls
	if full.committed != cached.committed {
		t.Fatalf("commits differ: full=%d cached=%d", full.committed, cached.committed)
	}
	if full.gasTotal != cached.gasTotal {
		t.Fatalf("total gas differs: full=%d cached=%d", full.gasTotal, cached.gasTotal)
	}
	// The cached run stops mutating contract state after warm-up — that is
	// the documented trade; the counter must equal the warm-up count.
	if full.counter != 100 {
		t.Fatalf("full-fidelity counter = %d, want 100", full.counter)
	}
	if cached.counter != 4 {
		t.Fatalf("cached counter = %d, want the 4 interpreted calls", cached.counter)
	}
}

// TestAllChainsRecoverAfterRestart runs every chain under the canonical
// crash-restart schedule: replica 2 crashes mid-run and restarts later.
// Commits through a live node must continue throughout, and the restarted
// node's own client must decide fresh transactions again — no silent hang.
func TestAllChainsRecoverAfterRestart(t *testing.T) {
	all := append(append([]string{}, Names()...), ExtensionNames()...)
	for _, name := range all {
		name := name
		t.Run(name, func(t *testing.T) {
			sched, net := testNet(t, name, 10)
			w := wallet.New(wallet.FastScheme{}, "recover-"+name, 20)
			live := net.NewClient(0)
			restarted := net.NewClient(2)
			liveCommits, restartCommits := 0, 0
			live.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { liveCommits++ }
			restarted.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { restartCommits++ }
			net.Start()
			chaos.Install(sched, net.Net, chaos.CanonicalCrashRestart(2, 8*time.Second, 60*time.Second))
			// Phase 1: submissions through a live node, spanning the crash.
			for i := 0; i < 10; i++ {
				i := i
				sched.At(time.Second+time.Duration(i)*200*time.Millisecond, func() {
					tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
					w.Get(i % 10).SignNext(tx)
					live.Submit(tx, nil)
				})
			}
			// Phase 2: fresh submissions through the restarted node itself.
			for i := 0; i < 5; i++ {
				i := i
				sched.At(70*time.Second+time.Duration(i)*200*time.Millisecond, func() {
					tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
					w.Get(10 + i).SignNext(tx)
					restarted.Submit(tx, nil)
				})
			}
			sched.RunUntil(240 * time.Second)
			net.Stop()
			if liveCommits != 10 {
				t.Fatalf("%s: live client committed %d/10 across the crash window", name, liveCommits)
			}
			if restartCommits != 5 {
				t.Fatalf("%s: restarted node's client committed %d/5 after restart (height %d, pending %d)",
					name, restartCommits, net.Height(), restarted.Pending())
			}
		})
	}
}

// TestRetryExhaustionClearsPending is the silent-hang regression test: a
// transaction submitted through a partitioned node used to linger in
// Client.pending forever with no signal. With a retry policy the client
// resubmits (deduplicated at the node), then gives up, fires OnTimeout and
// Pending() decays to zero.
func TestRetryExhaustionClearsPending(t *testing.T) {
	sched, net := testNet(t, "quorum", 8)
	w := wallet.New(wallet.FastScheme{}, "exhaust-test", 4)
	isolated := net.NewClient(7)
	isolated.SetRetry(chain.RetryPolicy{Timeout: 5 * time.Second, MaxRetries: 3})
	committed, timeouts, attempts := 0, 0, 0
	isolated.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { committed++ }
	isolated.OnTimeout = func(_ chain.Submission, a int, _ time.Duration) { timeouts++; attempts = a }
	net.Start()
	net.Net.Partition(map[simnet.NodeID]int{net.Nodes[7].Sim.ID: 1})

	tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(1).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
	w.Get(0).SignNext(tx)
	sched.After(time.Second, func() { isolated.Submit(tx, nil) })
	// Backoff doubles from 5s: exhaustion lands at ~1+5+10+20+40 = 76s.
	sched.RunUntil(120 * time.Second)
	net.Stop()
	if committed != 0 {
		t.Fatalf("committed %d across a partition", committed)
	}
	if timeouts != 1 || attempts != 3 {
		t.Fatalf("OnTimeout fired %d times with %d attempts, want 1 with 3", timeouts, attempts)
	}
	if isolated.Pending() != 0 {
		t.Fatalf("pending = %d after exhaustion, want 0 (the old silent hang)", isolated.Pending())
	}
	if isolated.Retries != 3 || net.TotalRetries != 3 || net.TotalTimeouts != 1 {
		t.Fatalf("counters: client retries %d, net retries %d, net timeouts %d",
			isolated.Retries, net.TotalRetries, net.TotalTimeouts)
	}
	// Resubmissions were deduplicated: the pool accepted the tx once.
	if net.Pool.Accepted() != 1 {
		t.Fatalf("pool accepted %d entries for one retried tx", net.Pool.Accepted())
	}
}

// TestRetrySucceedsAfterRestart submits through a crashed node with a
// retry policy: the first attempts fail, the node restarts, a later retry
// lands and the transaction commits exactly once.
func TestRetrySucceedsAfterRestart(t *testing.T) {
	sched, net := testNet(t, "quorum", 8)
	w := wallet.New(wallet.FastScheme{}, "retry-test", 4)
	client := net.NewClient(3)
	client.SetRetry(chain.RetryPolicy{Timeout: 5 * time.Second, MaxRetries: 5})
	committed, timeouts := 0, 0
	client.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { committed++ }
	client.OnTimeout = func(chain.Submission, int, time.Duration) { timeouts++ }
	net.Start()
	net.Nodes[3].Sim.Crash()
	sched.At(12*time.Second, func() { net.Nodes[3].Sim.Restart() })

	tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(1).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
	w.Get(0).SignNext(tx)
	sched.After(time.Second, func() { client.Submit(tx, nil) })
	sched.RunUntil(120 * time.Second)
	net.Stop()
	if committed != 1 {
		t.Fatalf("committed %d, want exactly 1 (retry after restart)", committed)
	}
	if timeouts != 0 {
		t.Fatalf("OnTimeout fired %d times for a recoverable submission", timeouts)
	}
	if client.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1 (first attempts hit the crashed node)", client.Retries)
	}
	if client.Pending() != 0 {
		t.Fatalf("pending = %d after commit", client.Pending())
	}
}

// TestAllChainsSurviveReplicaCrashes crashes two of ten replicas (possibly
// including in-turn proposers) on every chain and expects client
// transactions at live nodes to keep committing.
func TestAllChainsSurviveReplicaCrashes(t *testing.T) {
	all := append(append([]string{}, Names()...), ExtensionNames()...)
	for _, name := range all {
		name := name
		t.Run(name, func(t *testing.T) {
			sched, net := testNet(t, name, 10)
			w := wallet.New(wallet.FastScheme{}, "survive-"+name, 10)
			client := net.NewClient(0)
			committed := 0
			client.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { committed++ }
			net.Start()
			// Crash two replicas early, including a node that would be an
			// in-turn proposer for upcoming heights.
			sched.After(500*time.Millisecond, func() {
				net.Nodes[1].Sim.Crash()
				net.Nodes[4].Sim.Crash()
			})
			for i := 0; i < 20; i++ {
				i := i
				sched.At(time.Second+time.Duration(i)*200*time.Millisecond, func() {
					tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
					w.Get(i % 10).SignNext(tx)
					client.Submit(tx, nil)
				})
			}
			sched.RunUntil(180 * time.Second)
			net.Stop()
			if committed != 20 {
				t.Fatalf("%s committed %d/20 with two crashed replicas (height %d)",
					name, committed, net.Height())
			}
		})
	}
}

// TestSolanaExpiredTransactionsLeaveNoNetworkState is the regression test
// for a leak: the network used to index every admitted transaction's origin
// node and forget the entry only when the transaction was packed, so one
// evicted by the recent-blockhash TTL stayed indexed for the rest of the
// run. Transactions stranded at a cut-off, crashed node outlive the TTL
// here; afterwards the network's checkpoint section must be what it is for
// a network that never saw them.
func TestSolanaExpiredTransactionsLeaveNoNetworkState(t *testing.T) {
	const stranded = 5
	run := func(submit int) (*chain.Network, []snapshot.Field) {
		sched, net := testNet(t, "solana", 4)
		w := wallet.New(wallet.FastScheme{}, "ttl-leak", stranded)
		net.Start()
		net.Net.Partition(map[simnet.NodeID]int{net.Nodes[3].Sim.ID: 1})
		for i := 0; i < submit; i++ {
			tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1, GasLimit: 21000, GasPrice: 1}
			w.Get(i).SignNext(tx)
			if err := net.Nodes[3].SubmitTx(tx); err != nil {
				t.Fatal(err)
			}
		}
		net.Nodes[3].Sim.Crash() // its own leader slots are skipped too
		sched.RunUntil(net.Params.TxTTL + 10*time.Second)
		net.Stop()
		enc := snapshot.NewEncoder()
		net.SnapshotState(enc)
		fields, err := snapshot.DecodePayload(enc.Payload())
		if err != nil {
			t.Fatal(err)
		}
		return net, fields
	}
	net, got := run(stranded)
	if net.Pool.Len() != 0 || net.Pool.Dropped() != stranded || net.TotalCommittedTxs != 0 {
		t.Fatalf("stranded transactions not evicted: %d pooled, %d dropped, %d committed",
			net.Pool.Len(), net.Pool.Dropped(), net.TotalCommittedTxs)
	}
	_, want := run(0)
	if len(got) != len(want) {
		t.Fatalf("checkpoint section has %d fields, %d on the untouched network", len(got), len(want))
	}
	for i, f := range got {
		if f.Label != want[i].Label || f.Value() != want[i].Value() {
			t.Errorf("%s = %s after the eviction, %s on a network that never saw the transactions",
				f.Label, f.Value(), want[i].Value())
		}
	}
}
