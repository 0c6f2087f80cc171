package ibft

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

// deploy builds a small IBFT network for engine-level tests.
func deploy(t *testing.T, nodes int) (*sim.Scheduler, *chain.Network, *Engine) {
	t.Helper()
	sched := sim.NewScheduler(3)
	wan := simnet.New(sched)
	params := chain.Params{
		Name: "ibft-test", Consensus: "IBFT", Guarantee: "det.",
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

func submit(t *testing.T, net *chain.Network, w *wallet.Wallet, i int) {
	t.Helper()
	tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{1}, Value: 1, GasLimit: 21000}
	w.Get(i % w.Len()).SignNext(tx)
	if err := net.Nodes[0].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
}

func TestThreePhaseCommit(t *testing.T) {
	sched, net, eng := deploy(t, 4)
	w := wallet.New(wallet.FastScheme{}, "ibft", 4)
	delivered := 0
	c := net.NewClient(0)
	c.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { delivered++ }
	net.Start()
	for i := 0; i < 4; i++ {
		tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{1}, Value: 1, GasLimit: 21000}
		w.Get(i).SignNext(tx)
		c.Submit(tx, nil)
	}
	sched.RunUntil(30 * time.Second)
	net.Stop()
	if delivered != 4 {
		t.Fatalf("delivered %d/4", delivered)
	}
	if eng.Rounds == 0 {
		t.Fatal("no rounds counted")
	}
	if eng.RoundChanges != 0 {
		t.Fatalf("unexpected round changes on a healthy LAN: %d", eng.RoundChanges)
	}
}

func TestRoundChangeUnderExtremeDelay(t *testing.T) {
	sched, net, eng := deploy(t, 4)
	w := wallet.New(wallet.FastScheme{}, "ibft-delay", 4)
	// Injected delay beyond the base timeout forces at least one round
	// change; the doubled timeout then lets the round finish.
	net.Net.SetExtraDelay(11 * time.Second)
	delivered := 0
	c := net.NewClient(0)
	c.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { delivered++ }
	net.Start()
	tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{1}, Value: 1, GasLimit: 21000}
	w.Get(0).SignNext(tx)
	c.Submit(tx, nil)
	sched.RunUntil(300 * time.Second)
	net.Stop()
	if eng.RoundChanges == 0 {
		t.Fatal("expected round changes under an 11s message delay")
	}
	if delivered != 1 {
		t.Fatalf("delivered %d/1 despite round-change recovery", delivered)
	}
}

// TestQuorumSize pins the quorum the engine counts votes against on its
// own deployment: 2f+1 of the validators.
func TestQuorumSize(t *testing.T) {
	for _, c := range []struct{ n, q int }{{4, 3}, {7, 5}, {10, 7}, {200, 134}} {
		_, _, eng := deploy(t, c.n)
		if got := eng.net.Quorum(); got != c.q {
			t.Errorf("quorum(%d) = %d, want %d", c.n, got, c.q)
		}
	}
}

func TestStopHaltsProduction(t *testing.T) {
	sched, net, _ := deploy(t, 4)
	w := wallet.New(wallet.FastScheme{}, "ibft-stop", 1)
	net.Start()
	net.Stop()
	submit(t, net, w, 0)
	sched.RunUntil(10 * time.Second)
	if net.Height() != 0 {
		t.Fatal("stopped engine produced a block")
	}
}
