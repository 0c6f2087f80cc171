package ba

import (
	"slices"
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
	sched := sim.NewScheduler(4)
	wan := simnet.New(sched)
	params := chain.Params{
		Name: "ba-test", Consensus: "BA*", Guarantee: "prob.",
		VM: "AVM", Lang: "PyTeal",
		Profile:          vmprofiles.AVM,
		MinBlockInterval: 200 * time.Millisecond,
		Mempool:          mempool.Policy{},
		DefaultGasLimit:  1_000_000,
		NewEngine:        New,
	}
	net := chain.Deploy(sched, wan, params, chain.Deployment{
		Nodes: nodes, VCPUs: 8, Regions: simnet.AllRegions(),
	})
	return sched, net, net.Engine().(*Engine)
}

func TestCommitteeDeterministicAndSized(t *testing.T) {
	_, _, eng := deploy(t, 200)
	a := eng.committee(7, 0)
	b := eng.committee(7, 0)
	if members(a) != committeeSize || members(b) != committeeSize {
		t.Fatalf("committee sizes = %d, %d", members(a), members(b))
	}
	if !slices.Equal(a, b) {
		t.Fatal("sortition not deterministic")
	}
	// Different steps and rounds sample different committees.
	c := eng.committee(7, 1)
	d := eng.committee(8, 0)
	if slices.Equal(a, c) || slices.Equal(a, d) {
		t.Fatal("committees should differ across steps and rounds")
	}
}

// members counts a committee's members.
func members(committee []bool) int {
	n := 0
	for _, in := range committee {
		if in {
			n++
		}
	}
	return n
}

func TestSmallNetworkCommitteeIsEveryone(t *testing.T) {
	_, _, eng := deploy(t, 5)
	if got := members(eng.committee(1, 0)); got != 5 {
		t.Fatalf("committee = %d, want all 5", got)
	}
	if th := eng.threshold(); th != 5*2/3+1 {
		t.Fatalf("threshold = %d", th)
	}
}

func TestRoundsCommitWithoutForks(t *testing.T) {
	sched, net, eng := deploy(t, 10)
	w := wallet.New(wallet.FastScheme{}, "ba", 10)
	c := net.NewClient(0)
	decided := 0
	c.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { decided++ }
	net.Start()
	for i := 0; i < 10; i++ {
		tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{1}, Value: 1, GasLimit: 21000}
		w.Get(i).SignNext(tx)
		c.Submit(tx, nil)
	}
	sched.RunUntil(60 * time.Second)
	net.Stop()
	if decided != 10 {
		t.Fatalf("decided %d/10", decided)
	}
	if eng.Rounds == 0 {
		t.Fatal("no certified rounds")
	}
}
