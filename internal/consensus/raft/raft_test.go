package raft

import (
	"testing"
	"time"

	"diablo/internal/chains/chain"
	"diablo/internal/mempool"
	"diablo/internal/sim"
	"diablo/internal/simnet"
	"diablo/internal/types"
	"diablo/internal/vmprofiles"
	"diablo/internal/wallet"
)

func deploy(t *testing.T, nodes int) (*sim.Scheduler, *chain.Network, *Engine) {
	t.Helper()
	sched := sim.NewScheduler(11)
	wan := simnet.New(sched)
	params := chain.Params{
		Name: "raft-test", Consensus: "Raft", Guarantee: "crash-only",
		VM: "geth", Lang: "Solidity",
		Profile:          vmprofiles.Geth,
		MinBlockInterval: 200 * time.Millisecond,
		Mempool:          mempool.Policy{},
		DefaultGasLimit:  1_000_000,
		NewEngine:        New,
	}
	net := chain.Deploy(sched, wan, params, chain.Deployment{
		Nodes: nodes, VCPUs: 8, Regions: []simnet.Region{simnet.Ohio},
	})
	return sched, net, net.Engine().(*Engine)
}

func TestSingleElectionThenReplication(t *testing.T) {
	sched, net, eng := deploy(t, 5)
	w := wallet.New(wallet.FastScheme{}, "raft-unit", 5)
	c := net.NewClient(2)
	decided := 0
	c.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { decided++ }
	net.Start()
	for i := 0; i < 10; i++ {
		i := i
		sched.At(2*time.Second+time.Duration(i)*100*time.Millisecond, func() {
			tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{1}, Value: 1, GasLimit: 21000}
			w.Get(i % 5).SignNext(tx)
			c.Submit(tx, nil)
		})
	}
	sched.RunUntil(30 * time.Second)
	net.Stop()
	if decided != 10 {
		t.Fatalf("decided %d/10", decided)
	}
	if eng.Elections != 1 {
		t.Fatalf("elections = %d in a crash-free run", eng.Elections)
	}
}

func TestMajorityRule(t *testing.T) {
	for _, c := range []struct{ n, maj int }{{3, 2}, {5, 3}, {7, 4}, {10, 6}} {
		_, _, eng := deploy(t, c.n)
		if got := eng.majority(); got != c.maj {
			t.Errorf("majority(%d) = %d, want %d", c.n, got, c.maj)
		}
	}
}

func TestFollowersLearnCommitViaHeartbeat(t *testing.T) {
	sched, net, _ := deploy(t, 5)
	w := wallet.New(wallet.FastScheme{}, "raft-hb", 1)
	net.Start()
	tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{1}, Value: 1, GasLimit: 21000}
	w.Get(0).SignNext(tx)
	sched.After(2*time.Second, func() { net.Nodes[0].SubmitTx(tx) })
	sched.RunUntil(20 * time.Second)
	net.Stop()
	// Every live node learns the commit (piggybacked on heartbeats).
	for i, nd := range net.Nodes {
		if nd.Height != net.Height() {
			t.Fatalf("node %d height %d != %d", i, nd.Height, net.Height())
		}
	}
}
