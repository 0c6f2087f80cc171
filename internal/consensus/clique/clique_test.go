package clique

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

func deploy(t *testing.T, nodes int, period time.Duration) (*sim.Scheduler, *chain.Network) {
	t.Helper()
	sched := sim.NewScheduler(2)
	wan := simnet.New(sched)
	params := chain.Params{
		Name: "clique-test", Consensus: "Clique", Guarantee: "eventual",
		VM: "geth", Lang: "Solidity",
		Profile:          vmprofiles.Geth,
		BlockGasLimit:    5_000_000,
		MinBlockInterval: period,
		ConfirmDepth:     1,
		Mempool:          mempool.Policy{Capacity: 10000},
		DefaultGasLimit:  1_000_000,
		NewEngine:        New,
	}
	net := chain.Deploy(sched, wan, params, chain.Deployment{
		Nodes: nodes, VCPUs: 8, Regions: []simnet.Region{simnet.Ohio},
	})
	return sched, net
}

func TestPeriodThrottlesBlockRate(t *testing.T) {
	sched, net := deploy(t, 4, 5*time.Second)
	net.Start()
	sched.RunUntil(61 * time.Second)
	net.Stop()
	// One block per 5s period, even when idle (empty blocks confirm
	// predecessors).
	if h := int(net.Height()); h < 11 || h > 12 {
		t.Fatalf("height = %d in 61s with a 5s period", h)
	}
}

func TestThroughputBoundedByGasTimesPeriod(t *testing.T) {
	sched, net := deploy(t, 4, 5*time.Second)
	w := wallet.New(wallet.FastScheme{}, "clique", 100)
	c := net.NewClient(0)
	decided := 0
	c.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { decided++ }
	net.Start()
	// Offer far more than 5M gas / 21k / 5s = ~47 TPS can absorb.
	for i := 0; i < 2000; i++ {
		i := i
		sched.At(time.Duration(i)*5*time.Millisecond, func() {
			tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{1}, Value: 1, GasLimit: 21000}
			w.Get(i % 100).SignNext(tx)
			c.Submit(tx, nil)
		})
	}
	sched.RunUntil(31 * time.Second)
	net.Stop()
	perBlock := 5_000_000 / 21_000   // 238
	maxCommits := (6 - 1) * perBlock // 6 blocks sealed, last unconfirmed
	if decided > maxCommits {
		t.Fatalf("decided %d, cap is %d", decided, maxCommits)
	}
	if decided < 2*perBlock {
		t.Fatalf("decided only %d", decided)
	}
}

func TestConfirmationDepthDelaysDecision(t *testing.T) {
	sched, net := deploy(t, 4, 2*time.Second)
	w := wallet.New(wallet.FastScheme{}, "clique-conf", 1)
	c := net.NewClient(0)
	var latency time.Duration
	var submitAt time.Duration
	c.OnDecided = func(_ chain.Submission, _ types.ExecStatus, at time.Duration) { latency = at - submitAt }
	net.Start()
	sched.After(100*time.Millisecond, func() {
		tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{1}, Value: 1, GasLimit: 21000}
		w.Get(0).SignNext(tx)
		submitAt = sched.Now()
		c.Submit(tx, nil)
	})
	sched.RunUntil(30 * time.Second)
	net.Stop()
	// Inclusion at the next period plus one confirmation block.
	if latency < 3*time.Second {
		t.Fatalf("latency = %v, want >= period + confirmation", latency)
	}
}
