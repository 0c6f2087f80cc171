package hotstuff

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

func deploy(t *testing.T, nodes int, regions []simnet.Region) (*sim.Scheduler, *chain.Network, *Engine) {
	t.Helper()
	sched := sim.NewScheduler(8)
	wan := simnet.New(sched)
	params := chain.Params{
		Name: "hs-test", Consensus: "HotStuff", Guarantee: "det.",
		VM: "MoveVM", Lang: "Move",
		Profile:          vmprofiles.MoveVM,
		MaxBlockTxs:      1000,
		MinBlockInterval: 200 * time.Millisecond,
		Mempool:          mempool.Policy{Capacity: 10000, PerSender: 100},
		StrictNonces:     true,
		DefaultGasLimit:  1_000_000,
		NewEngine:        New,
	}
	net := chain.Deploy(sched, wan, params, chain.Deployment{
		Nodes: nodes, VCPUs: 8, Regions: regions,
	})
	return sched, net, net.Engine().(*Engine)
}

func TestThreeChainCommitLatency(t *testing.T) {
	sched, net, eng := deploy(t, 4, []simnet.Region{simnet.Ohio})
	w := wallet.New(wallet.FastScheme{}, "hs", 4)
	c := net.NewClient(0)
	var latency time.Duration
	var submitAt time.Duration
	decided := 0
	c.OnDecided = func(_ chain.Submission, _ types.ExecStatus, at time.Duration) {
		decided++
		latency = at - submitAt
	}
	net.Start()
	sched.After(time.Second, func() {
		tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{1}, Value: 1, GasLimit: 21000}
		w.Get(0).SignNext(tx)
		submitAt = sched.Now()
		c.Submit(tx, nil)
	})
	sched.RunUntil(30 * time.Second)
	net.Stop()
	if decided != 1 {
		t.Fatalf("decided %d/1", decided)
	}
	// Commit needs the three-chain: block view + 2 more views; on a LAN
	// with a 200ms pacemaker that is well under 2 seconds (the paper's
	// Diem-on-LAN result) but over 2 views' worth.
	if latency < 400*time.Millisecond || latency > 2*time.Second {
		t.Fatalf("three-chain latency = %v", latency)
	}
	if eng.Views < 3 {
		t.Fatalf("views = %d", eng.Views)
	}
}

func TestPacemakerTimesOutOnWAN(t *testing.T) {
	// Geo-distributed views exceed the 1s LAN-tuned timeout and pay
	// retransmissions — the §6.2 Diem finding.
	sched, net, _ := deploy(t, 10, simnet.AllRegions())
	net.Net.SetExtraDelay(900 * time.Millisecond) // pushes views past 1s
	w := wallet.New(wallet.FastScheme{}, "hs-wan", 4)
	c := net.NewClient(0)
	decided := 0
	c.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { decided++ }
	net.Start()
	sched.After(time.Second, func() {
		tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{1}, Value: 1, GasLimit: 21000}
		w.Get(0).SignNext(tx)
		c.Submit(tx, nil)
	})
	sched.RunUntil(120 * time.Second)
	net.Stop()
	if decided != 1 {
		t.Fatalf("decided %d/1 on the delayed WAN", decided)
	}
}

func TestIdlePacemakerFlushesAndRests(t *testing.T) {
	sched, net, eng := deploy(t, 4, []simnet.Region{simnet.Ohio})
	w := wallet.New(wallet.FastScheme{}, "hs-idle", 1)
	c := net.NewClient(0)
	net.Start()
	tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{1}, Value: 1, GasLimit: 21000}
	w.Get(0).SignNext(tx)
	sched.After(time.Second, func() { c.Submit(tx, nil) })
	sched.RunUntil(60 * time.Second)
	viewsAfterFlush := eng.Views
	sched.RunUntil(120 * time.Second)
	net.Stop()
	// Once the only transaction's block is committed (flushed through the
	// three-chain), the pacemaker stops proposing empty blocks.
	if eng.Views != viewsAfterFlush {
		t.Fatalf("views kept advancing while idle: %d -> %d", viewsAfterFlush, eng.Views)
	}
}
