package snowball

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
	sched := sim.NewScheduler(6)
	wan := simnet.New(sched)
	params := chain.Params{
		Name: "snow-test", Consensus: "Avalanche", Guarantee: "prob.",
		VM: "geth", Lang: "Solidity",
		Profile:          vmprofiles.Geth,
		BlockGasLimit:    8_000_000,
		MinBlockInterval: 1900 * time.Millisecond,
		Mempool:          mempool.Policy{},
		DefaultGasLimit:  1_000_000,
		NewEngine:        New,
	}
	net := chain.Deploy(sched, wan, params, chain.Deployment{
		Nodes: nodes, VCPUs: 8, Regions: []simnet.Region{simnet.Ohio},
	})
	return sched, net, net.Engine().(*Engine)
}

func TestSamplingReachesAcceptanceEverywhere(t *testing.T) {
	sched, net, eng := deploy(t, 8)
	w := wallet.New(wallet.FastScheme{}, "snow", 4)
	c := net.NewClient(3)
	decided := 0
	c.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { decided++ }
	net.Start()
	for i := 0; i < 4; i++ {
		tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{1}, Value: 1, GasLimit: 21000}
		w.Get(i).SignNext(tx)
		c.Submit(tx, nil)
	}
	sched.RunUntil(60 * time.Second)
	net.Stop()
	if decided != 4 {
		t.Fatalf("decided %d/4", decided)
	}
	if eng.Rounds == 0 {
		t.Fatal("no accepted rounds")
	}
	// Every node must have accepted (delivered) the blocks.
	for i, nd := range net.Nodes {
		if nd.Height != net.Height() {
			t.Fatalf("node %d height %d != chain %d", i, nd.Height, net.Height())
		}
	}
}

func TestBlockPacingHonorsFloor(t *testing.T) {
	sched, net, _ := deploy(t, 5)
	w := wallet.New(wallet.FastScheme{}, "snow-pace", 1)
	net.Start()
	// Constant trickle keeps the pool non-empty for 30s.
	for i := 0; i < 300; i++ {
		i := i
		sched.At(time.Duration(i)*100*time.Millisecond, func() {
			tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{1}, Value: 1, GasLimit: 21000}
			w.Get(0).SignNext(tx)
			net.Nodes[0].SubmitTx(tx)
		})
	}
	sched.RunUntil(30 * time.Second)
	net.Stop()
	// Acceptance-paced cadence: no faster than one block per ~2.6s.
	if h := int(net.Height()); h > 13 {
		t.Fatalf("height %d in 30s: pacing floor violated", h)
	}
}

func TestSingleNodeSelfChit(t *testing.T) {
	sched, net, _ := deploy(t, 1)
	w := wallet.New(wallet.FastScheme{}, "snow-solo", 1)
	c := net.NewClient(0)
	decided := 0
	c.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { decided++ }
	net.Start()
	tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{1}, Value: 1, GasLimit: 21000}
	w.Get(0).SignNext(tx)
	c.Submit(tx, nil)
	sched.RunUntil(30 * time.Second)
	net.Stop()
	if decided != 1 {
		t.Fatalf("decided %d/1 on a single-node network", decided)
	}
}
