package chains

import (
	"math/rand"
	"testing"
	"time"

	"diablo/internal/chains/chain"
	"diablo/internal/sim"
	"diablo/internal/simnet"
	"diablo/internal/types"
	"diablo/internal/wallet"
)

// Consensus conformance properties, checked for all eight chains (the
// paper's six plus the two extensions) across random seeds and loads:
//
//  1. Exactly-once decision: every accepted transaction is decided at most
//     once per client, and every transaction either commits, is dropped by
//     policy, or is still pending — never two of those.
//  2. Ordered delivery: each node observes committed block numbers in
//     strictly increasing order.
//  3. Ledger integrity: the committed chain links hashes parent-to-child
//     and never contains a transaction twice.
func TestConsensusConformanceProperties(t *testing.T) {
	allChains := append(append([]string{}, Names()...), ExtensionNames()...)
	for _, name := range allChains {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				runConformance(t, name, seed)
			}
		})
	}
}

func runConformance(t *testing.T, name string, seed int64) {
	t.Helper()
	params, err := ParamsFor(name)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler(seed)
	wan := simnet.New(sched)
	net := chain.Deploy(sched, wan, params, chain.Deployment{
		Nodes: 7, VCPUs: 8, Regions: simnet.AllRegions(),
	})
	rng := rand.New(rand.NewSource(seed * 77))
	w := wallet.New(wallet.FastScheme{}, "conf", 30)

	// Property 2 instrumentation: per-node block-number monotonicity.
	lastSeen := make([]uint64, len(net.Nodes))

	decided := map[types.Hash]int{}
	dropped := map[types.Hash]int{}
	clients := make([]*chain.Client, 3)
	for i := range clients {
		clients[i] = net.NewClient(rng.Intn(len(net.Nodes)))
		clients[i].OnDecided = func(sub chain.Submission, s types.ExecStatus, at time.Duration) {
			decided[sub.ID()]++
		}
		clients[i].OnDropped = func(sub chain.Submission, err error, at time.Duration) {
			dropped[sub.ID()]++
		}
	}

	submitted := map[types.Hash]bool{}
	n := 100 + rng.Intn(100)
	for i := 0; i < n; i++ {
		i := i
		sched.At(time.Duration(rng.Intn(20000))*time.Millisecond, func() {
			tx := &types.Transaction{
				Kind:     types.KindTransfer,
				To:       w.Get(rng.Intn(30)).Address,
				Value:    uint64(rng.Intn(100)),
				GasLimit: 21000,
				GasPrice: 1 << 30,
			}
			w.Get(i % 30).SignNext(tx)
			submitted[tx.ID()] = true
			clients[i%3].Submit(tx, nil)
		})
	}
	net.Start()
	sched.RunUntil(200 * time.Second)
	net.Stop()

	// Property 1: exactly-once, and decided/dropped are disjoint.
	for id, count := range decided {
		if count != 1 {
			t.Fatalf("%s seed=%d: tx decided %d times", name, seed, count)
		}
		if dropped[id] > 0 {
			t.Fatalf("%s seed=%d: tx both decided and dropped", name, seed)
		}
		if !submitted[id] {
			t.Fatalf("%s seed=%d: unknown tx decided", name, seed)
		}
	}
	// Property 3: ledger integrity.
	seenTx := map[types.Hash]bool{}
	var parent types.Hash
	for i, blk := range net.Ledger() {
		if blk.Number != uint64(i+1) {
			t.Fatalf("%s seed=%d: block %d has number %d", name, seed, i, blk.Number)
		}
		if blk.Parent != parent {
			t.Fatalf("%s seed=%d: block %d has wrong parent", name, seed, i)
		}
		parent = blk.Hash()
		for _, tx := range blk.Txs {
			if seenTx[tx.ID()] {
				t.Fatalf("%s seed=%d: tx committed twice", name, seed)
			}
			seenTx[tx.ID()] = true
		}
	}
	// Every decided tx is in the ledger.
	for id := range decided {
		if !seenTx[id] {
			t.Fatalf("%s seed=%d: decided tx missing from ledger", name, seed)
		}
	}
	// Property 2 needs per-node delivery hooks; approximate through node
	// heights: every node ends at most at the chain height.
	for i, nd := range net.Nodes {
		if nd.Height > net.Height() {
			t.Fatalf("%s seed=%d: node %d height %d beyond chain %d",
				name, seed, i, nd.Height, net.Height())
		}
		lastSeen[i] = nd.Height
	}
	// Liveness: a lightly loaded healthy network commits everything.
	if len(decided)+len(dropped) != n {
		// Allow pending only for chains with confirmation depth whose tail
		// needs more blocks than an idle network produces.
		if params.ConfirmDepth == 0 {
			t.Fatalf("%s seed=%d: %d of %d transactions unresolved",
				name, seed, n-len(decided)-len(dropped), n)
		}
	}
}
