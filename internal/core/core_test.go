package core

import (
	"testing"
	"time"

	"diablo/internal/chains"
	"diablo/internal/chains/chain"
	"diablo/internal/sim"
	"diablo/internal/simnet"
	"diablo/internal/stats"
	"diablo/internal/types"
	"diablo/internal/wallet"
	"diablo/internal/workloads"
)

func newAdapter(t *testing.T, chainName string, nodes int) (*sim.Scheduler, *chain.Network, *SimAdapter) {
	t.Helper()
	params, err := chains.ParamsFor(chainName)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler(7)
	wan := simnet.New(sched)
	net := chain.Deploy(sched, wan, params, chain.Deployment{
		Nodes: nodes, VCPUs: 8, Regions: simnet.AllRegions(),
	})
	w := wallet.New(wallet.FastScheme{}, "core-"+chainName, 50)
	return sched, net, NewSimAdapter(net, w)
}

func TestAdapterEndpointsAndResources(t *testing.T) {
	_, _, a := newAdapter(t, "quorum", 5)
	if len(a.Endpoints()) != 5 {
		t.Fatalf("endpoints = %d", len(a.Endpoints()))
	}
	acct, err := a.CreateResource(ResourceSpec{Kind: ResourceAccount, Index: 3})
	if err != nil || acct.Address.IsZero() {
		t.Fatalf("account resource: %v %v", acct, err)
	}
	if _, err := a.CreateResource(ResourceSpec{Kind: ResourceAccount, Index: 999}); err == nil {
		t.Fatal("out-of-range account accepted")
	}
	c1, err := a.CreateResource(ResourceSpec{Kind: ResourceContract, Name: "fifa"})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := a.CreateResource(ResourceSpec{Kind: ResourceContract, Name: "fifa"})
	if err != nil || c1.Address != c2.Address {
		t.Fatal("contract resource not idempotent")
	}
	if _, err := a.CreateResource(ResourceSpec{Kind: ResourceContract, Name: "nope"}); err == nil {
		t.Fatal("unknown DApp accepted")
	}
}

func TestAdapterRejectsUnsupportedDApp(t *testing.T) {
	// YouTube cannot be expressed on the AVM: the paper's Algorand case.
	_, _, a := newAdapter(t, "algorand", 4)
	if _, err := a.CreateResource(ResourceSpec{Kind: ResourceContract, Name: "youtube"}); err == nil {
		t.Fatal("youtube should not deploy on algorand")
	}
}

func TestClientEncodeTriggerObserve(t *testing.T) {
	sched, net, a := newAdapter(t, "quorum", 4)
	c, err := a.CreateClient([]Endpoint{0})
	if err != nil {
		t.Fatal(err)
	}
	var got Observation
	var gotToken any
	c.Observe(func(token any, o Observation) { gotToken, got = token, o })

	net.Start()
	e, err := c.Encode(InteractionSpec{Kind: InteractTransfer, From: 0, To: 1, Amount: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Trigger(e, "tok-1"); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(60 * time.Second)
	net.Stop()

	if gotToken != "tok-1" {
		t.Fatalf("token = %v", gotToken)
	}
	if got.Decided <= got.Submitted || got.Status != types.StatusOK || got.Dropped {
		t.Fatalf("observation = %+v", got)
	}
}

func TestClientErrors(t *testing.T) {
	_, _, a := newAdapter(t, "quorum", 4)
	if _, err := a.CreateClient(nil); err == nil {
		t.Fatal("client with no endpoints accepted")
	}
	if _, err := a.CreateClient([]Endpoint{99}); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	c, _ := a.CreateClient([]Endpoint{0})
	if _, err := c.Encode(InteractionSpec{Kind: InteractInvoke}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := c.Encode(InteractionSpec{
		Kind: InteractInvoke, Function: "f",
		Contract: Resource{Kind: ResourceContract, Name: "ghost"},
	}); err == nil {
		t.Fatal("undeployed contract accepted")
	}
	if err := c.Trigger("not-an-interaction", nil); err == nil {
		t.Fatal("foreign interaction accepted")
	}
}

func TestInteractionSpecValidate(t *testing.T) {
	ok := InteractionSpec{Kind: InteractTransfer, From: 0, To: 1}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []InteractionSpec{
		{Kind: InteractTransfer, From: -1},
		{Kind: InteractInvoke},
		{Kind: InteractionKind(99)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestEngineEndToEnd runs a small constant workload through the full
// engine on every chain and sanity-checks the aggregates.
func TestEngineEndToEnd(t *testing.T) {
	for _, name := range chains.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sched, net, a := newAdapter(t, name, 8)
			net.Start()
			res, err := Run(sched, a, BenchmarkSpec{
				Traces:   []*workloads.Trace{workloads.NativeConstant(20, 10*time.Second)},
				Accounts: 50,
				Seed:     1,
				Tail:     120 * time.Second,
			})
			net.Stop()
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.Submitted != 200 {
				t.Fatalf("submitted = %d, want 200", res.Summary.Submitted)
			}
			if res.Summary.Committed != 200 {
				t.Fatalf("committed = %d/200 (dropped %d)", res.Summary.Committed, res.Dropped)
			}
			if res.Summary.AvgLatency <= 0 {
				t.Fatal("no latency measured")
			}
			if res.SubmittedPerSec.Total() != 200 {
				t.Fatalf("submitted series total = %d", res.SubmittedPerSec.Total())
			}
			if res.CommittedPerSec.Total() != 200 {
				t.Fatalf("committed series total = %d", res.CommittedPerSec.Total())
			}
			if len(res.Latencies) != 200 {
				t.Fatalf("latencies = %d", len(res.Latencies))
			}
			t.Logf("%s: tput=%.1f TPS lat=%v", name, res.Summary.ThroughputTPS, res.Summary.AvgLatency)
		})
	}
}

// TestEngineDAppWorkload drives the FIFA counter through the engine.
func TestEngineDAppWorkload(t *testing.T) {
	sched, net, a := newAdapter(t, "quorum", 4)
	net.Start()
	res, err := Run(sched, a, BenchmarkSpec{
		Traces:   []*workloads.Trace{workloads.Constant("mini-fifa", "fifa", "add", 10, 10*time.Second)},
		Accounts: 20,
		Seed:     2,
	})
	net.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Committed != 100 {
		t.Fatalf("committed %d/100", res.Summary.Committed)
	}
	if res.AbortedExec != 0 {
		t.Fatalf("aborted %d", res.AbortedExec)
	}
	// The counter must reflect every committed add.
	contract, ok := a.contracts["fifa"]
	if !ok {
		t.Fatal("contract not deployed")
	}
	if got := contract.Storage.Load(0); got != 100 {
		t.Fatalf("counter = %d, want 100", got)
	}
}

// TestEngineUnsupportedDAppReportsEmptyRun mirrors the paper's Fig. 2
// missing-bar case.
func TestEngineUnsupportedDAppReportsEmptyRun(t *testing.T) {
	sched, net, a := newAdapter(t, "algorand", 4)
	net.Start()
	res, err := Run(sched, a, BenchmarkSpec{
		Traces: []*workloads.Trace{workloads.Constant("mini-yt", "youtube", "upload", 5, 5*time.Second)},
	})
	net.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeployErr == nil {
		t.Fatal("expected a deploy error")
	}
	if res.Summary.Committed != 0 {
		t.Fatal("unsupported DApp committed transactions")
	}
}

// TestEngineGafamMultiTrace runs the five concurrent stock traces.
func TestEngineGafamMultiTrace(t *testing.T) {
	sched, net, a := newAdapter(t, "quorum", 4)
	net.Start()
	traces := []*workloads.Trace{}
	for _, s := range workloads.Stocks {
		tr, err := workloads.NASDAQ(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr.Scaled(0.02).Truncated(20*time.Second))
	}
	res, err := Run(sched, a, BenchmarkSpec{Traces: traces, Accounts: 100, Seed: 3})
	net.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Submitted == 0 || len(res.Traces) != 5 {
		t.Fatalf("gafam run wrong: %+v", res.Summary)
	}
	if res.Summary.CommitRatio < 0.9 {
		t.Fatalf("scaled gafam commit ratio %.2f too low", res.Summary.CommitRatio)
	}
	// All five buy functions must have executed.
	contract := a.contracts["exchange"]
	sold := 0
	for slot := uint64(0); slot < 5; slot++ {
		sold += int(1_000_000_000 - contract.Storage.Load(slot))
	}
	if sold != res.Summary.Committed {
		t.Fatalf("stocks sold %d != committed %d", sold, res.Summary.Committed)
	}
}

var _ = stats.Summary{} // keep stats import if assertions change

// Allocation budget of the client path on a deployed 20-node Quorum: Encode
// (calldata and transaction; sealing allocates nothing), Trigger (the chain
// client's one pending record) and the RPC event that carries the
// transaction into the pool — four allocations per transaction with map
// and slice growth amortised in, for provisioned senders and for implicit
// stream senders.
func TestSubmitPathAllocationBudget(t *testing.T) {
	const batch = 256
	sched, _, a := newAdapter(t, "quorum", 20)
	fifa, err := a.CreateResource(ResourceSpec{Kind: ResourceContract, Name: "fifa"})
	if err != nil {
		t.Fatal(err)
	}
	nft, err := a.CreateResource(ResourceSpec{Kind: ResourceContract, Name: "nft"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.CreateClient([]Endpoint{0})
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(func(any, Observation) {})
	tokens := &recordTokens{}
	next := uint64(0)
	for _, tc := range []struct {
		name string
		spec func() InteractionSpec
	}{
		{"explicit", func() InteractionSpec {
			return InteractionSpec{Kind: InteractInvoke, From: int(next % 50), Contract: fifa, Function: "add"}
		}},
		// 64 implicit clients in rounds: the lazy wallet's cache holds them
		// all, so key derivation (measured on its own) stays out.
		{"implicit", func() InteractionSpec {
			return InteractionSpec{
				Kind: InteractInvoke, Implicit: true, FromIndex: next % 64, Nonce: next / 64,
				Contract: nft, Function: "mint",
			}
		}},
	} {
		spec := tc.spec
		perBatch := testing.AllocsPerRun(20, func() {
			for i := 0; i < batch; i++ {
				e, err := c.Encode(spec())
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Trigger(e, tokens.next(int32(next))); err != nil {
					t.Fatal(err)
				}
				next++
			}
			sched.RunFor(time.Millisecond) // the batch's RPC events
		})
		if perTx := perBatch / batch; perTx > 4 {
			t.Errorf("%s senders: %.2f allocations per transaction, budget 4", tc.name, perTx)
		} else {
			t.Logf("%s senders: %.2f allocations per transaction", tc.name, perTx)
		}
	}
	if got, want := a.Net.Pool.Len(), int(next); got != want {
		t.Fatalf("pool holds %d of %d triggered transactions", got, want)
	}
}
