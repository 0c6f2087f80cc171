package chains

import (
	"testing"
	"time"

	"diablo/internal/chains/chain"
	"diablo/internal/dapps"
	"diablo/internal/sim"
	"diablo/internal/simnet"
	"diablo/internal/types"
	"diablo/internal/wallet"
)

// testNet deploys a small network of the named chain.
func testNet(t *testing.T, name string, nodes int) (*sim.Scheduler, *chain.Network) {
	t.Helper()
	params, err := ParamsFor(name)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler(42)
	wan := simnet.New(sched)
	net := chain.Deploy(sched, wan, params, chain.Deployment{
		Nodes: nodes, VCPUs: 8, Regions: simnet.AllRegions(),
	})
	return sched, net
}

func TestRegistryCompleteness(t *testing.T) {
	if len(Names()) != 6 {
		t.Fatal("expected six chains")
	}
	for _, name := range Names() {
		p, err := ParamsFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name || p.Consensus == "" || p.VM == "" || p.Lang == "" || p.Guarantee == "" {
			t.Fatalf("%s: incomplete Table 4 metadata: %+v", name, p)
		}
		if p.NewEngine == nil || p.Profile == nil {
			t.Fatalf("%s: missing engine or profile", name)
		}
	}
	if _, err := ParamsFor("bitcoin"); err == nil {
		t.Fatal("unknown chain accepted")
	}
}

// TestNativeTransfersCommitAllChains submits transfers on a 10-node
// geo-distributed network of every chain and checks they commit with sane
// latencies.
func TestNativeTransfersCommitAllChains(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sched, net := testNet(t, name, 10)
			w := wallet.New(wallet.FastScheme{}, "transfers-"+name, 20)

			committed := 0
			var lastLatency time.Duration

			clients := make([]*chain.Client, 10)
			for i := range clients {
				clients[i] = net.NewClient(i)
				clients[i].OnDecided = func(sub chain.Submission, status types.ExecStatus, at time.Duration) {
					if status != types.StatusOK {
						t.Errorf("transfer failed: %v", status)
					}
					committed++
					lastLatency = at - sub.Submitted
				}
				clients[i].OnDropped = func(sub chain.Submission, err error, at time.Duration) {
					t.Errorf("transfer dropped: %v", err)
				}
			}

			net.Start()
			// 100 transfers over 10 seconds, spread across clients.
			for i := 0; i < 100; i++ {
				i := i
				sched.At(time.Duration(i)*100*time.Millisecond, func() {
					acct := w.Get(i % 20)
					tx := &types.Transaction{
						Kind:     types.KindTransfer,
						To:       w.Get((i + 1) % 20).Address,
						Value:    1,
						GasLimit: 21000,
						GasPrice: 1 << 30,
					}
					acct.SignNext(tx)
					clients[i%10].Submit(tx, nil)
				})
			}
			sched.RunUntil(120 * time.Second)
			net.Stop()

			if committed != 100 {
				t.Fatalf("committed %d/100 transfers (height %d, pool %d)",
					committed, net.Height(), net.Pool.Len())
			}
			if lastLatency <= 0 || lastLatency > 90*time.Second {
				t.Fatalf("implausible commit latency %v", lastLatency)
			}
			t.Logf("%s: height=%d lastLatency=%v", name, net.Height(), lastLatency)
		})
	}
}

// TestDAppInvocationAllChains deploys the FIFA counter on every chain and
// invokes it; geth/Move/eBPF chains must execute it, and the receipts must
// carry the VM result.
func TestDAppInvocationAllChains(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sched, net := testNet(t, name, 4)
			w := wallet.New(wallet.FastScheme{}, "dapp-"+name, 5)

			d, err := dapps.Get("fifa")
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := d.Compile()
			if err != nil {
				t.Fatal(err)
			}
			// Deploy from a dedicated Primary account: deployment consumes a
			// sequence number, so mixing it with a workload signer would
			// stall that signer on strict-nonce chains.
			deployer := wallet.NewAccount(wallet.FastScheme{}, []byte("primary"))
			contract, err := net.Exec.DeployDApp(deployer.Address, d)
			if err != nil {
				t.Fatal(err)
			}

			client := net.NewClient(0)
			okCount := 0
			client.OnDecided = func(sub chain.Submission, status types.ExecStatus, at time.Duration) {
				if status == types.StatusOK {
					okCount++
				} else {
					t.Errorf("invoke status: %v", status)
				}
			}

			net.Start()
			for i := 0; i < 10; i++ {
				i := i
				sched.At(time.Duration(i)*200*time.Millisecond, func() {
					calldata, _ := compiled.Calldata("add")
					tx := &types.Transaction{
						Kind:     types.KindInvoke,
						To:       contract.Address,
						GasLimit: 1_000_000,
						GasPrice: 1 << 30,
						Data:     chain.EncodeInvokeData(calldata, 0),
					}
					w.Get(i % 5).SignNext(tx)
					client.Submit(tx, nil)
				})
			}
			sched.RunUntil(90 * time.Second)
			net.Stop()

			if okCount != 10 {
				t.Fatalf("%d/10 invocations committed ok", okCount)
			}
			// The contract state reflects all ten adds (slot/key 0 holds
			// the counter on both VM families).
			var got uint64
			if contract.AVM != nil {
				got, _ = contract.AppState.Get(0)
			} else {
				got = contract.Storage.Load(0)
			}
			if got != 10 {
				t.Fatalf("counter = %d, want 10", got)
			}
		})
	}
}

// TestUberBudgetOutcomePerChain reproduces experiment E2 end to end: the
// mobility DApp commits with "budget exceeded" receipts on Algorand, Diem
// and Solana, and succeeds on the three geth chains.
func TestUberBudgetOutcomePerChain(t *testing.T) {
	want := map[string]types.ExecStatus{
		"algorand":  types.StatusBudgetExceeded,
		"avalanche": types.StatusOK,
		"diem":      types.StatusBudgetExceeded,
		"ethereum":  types.StatusOK,
		"quorum":    types.StatusOK,
		"solana":    types.StatusBudgetExceeded,
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sched, net := testNet(t, name, 4)
			w := wallet.New(wallet.FastScheme{}, "uber-"+name, 2)
			d, _ := dapps.Get("uber")
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
			var got types.ExecStatus
			decided := false
			client.OnDecided = func(sub chain.Submission, status types.ExecStatus, at time.Duration) {
				got = status
				decided = true
			}
			net.Start()
			calldata, _ := compiled.Calldata("checkDistance", 100, 200)
			tx := &types.Transaction{
				Kind:     types.KindInvoke,
				To:       contract.Address,
				GasLimit: 5_000_000,
				GasPrice: 1 << 30,
				Data:     chain.EncodeInvokeData(calldata, 0),
			}
			w.Get(0).SignNext(tx)
			sched.After(time.Second, func() { client.Submit(tx, nil) })
			sched.RunUntil(90 * time.Second)
			net.Stop()
			if !decided {
				t.Fatal("transaction never decided")
			}
			if got != want[name] {
				t.Fatalf("status = %v, want %v", got, want[name])
			}
		})
	}
}

// TestQuorumCollapsesUnderSustainedOverload checks the §6.3 result: the
// unbounded IBFT design crashes under sustained 10x overload but survives
// a short burst of the same magnitude (§6.5).
func TestQuorumCollapsesUnderSustainedOverload(t *testing.T) {
	sched, net := testNet(t, "quorum", 10)
	w := wallet.New(wallet.FastScheme{}, "overload", 50)
	client := net.NewClient(0)
	net.Start()
	// Sustained 20,000 TPS (well over the 8 vCPU x 1000/s capacity) in
	// 100ms batches for 30 seconds.
	for batch := 0; batch < 300; batch++ {
		batch := batch
		sched.At(time.Duration(batch)*100*time.Millisecond, func() {
			if net.Crashed() {
				return
			}
			for i := 0; i < 2000; i++ {
				tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(1).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
				w.Get((batch*7 + i) % 50).SignNext(tx)
				client.Submit(tx, nil)
			}
		})
	}
	sched.RunUntil(40 * time.Second)
	if !net.Crashed() {
		t.Fatal("quorum did not collapse under sustained overload")
	}
}

func TestQuorumSurvivesBurst(t *testing.T) {
	sched, net := testNet(t, "quorum", 10)
	w := wallet.New(wallet.FastScheme{}, "burst", 50)
	client := net.NewClient(0)
	committed := 0
	client.OnDecided = func(chain.Submission, types.ExecStatus, time.Duration) { committed++ }
	client.OnDropped = func(_ chain.Submission, err error, _ time.Duration) {
		t.Errorf("burst tx dropped: %v", err)
	}
	net.Start()
	// One 10,000-transaction burst in the first second (the Apple
	// workload's shape), then silence.
	for i := 0; i < 10000; i++ {
		i := i
		sched.At(time.Duration(i)*100*time.Microsecond, func() {
			tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
			w.Get(i % 50).SignNext(tx)
			client.Submit(tx, nil)
		})
	}
	sched.RunUntil(180 * time.Second)
	net.Stop()
	if net.Crashed() {
		t.Fatal("quorum crashed on a burst it should absorb")
	}
	if committed != 10000 {
		t.Fatalf("committed %d/10000 burst transactions", committed)
	}
}

// TestBoundedChainsDropExcess checks the Fig. 6 plateau mechanism: bounded
// pools drop part of a 10k burst instead of crashing.
func TestBoundedChainsDropExcess(t *testing.T) {
	for _, name := range []string{"algorand", "solana", "diem"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sched, net := testNet(t, name, 10)
			w := wallet.New(wallet.FastScheme{}, "drop-"+name, 200)
			client := net.NewClient(0)
			dropped, committed := 0, 0
			client.OnDropped = func(chain.Submission, error, time.Duration) { dropped++ }
			client.OnDecided = func(_ chain.Submission, s types.ExecStatus, _ time.Duration) { committed++ }
			net.Start()
			// 20k burst in one second: well above every bounded pool.
			for i := 0; i < 20000; i++ {
				i := i
				sched.At(time.Duration(i)*50*time.Microsecond, func() {
					tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
					w.Get(i % 200).SignNext(tx)
					client.Submit(tx, nil)
				})
			}
			sched.RunUntil(240 * time.Second)
			net.Stop()
			if dropped == 0 {
				t.Fatalf("%s dropped nothing from a 10k burst (pool %d)", name, net.Pool.Len())
			}
			if committed == 0 {
				t.Fatalf("%s committed nothing", name)
			}
			if net.Crashed() {
				t.Fatalf("%s crashed instead of shedding", name)
			}
			t.Logf("%s: committed=%d dropped=%d", name, committed, dropped)
		})
	}
}

// TestSolanaConfirmationDepthLatency checks that Solana commit latency is
// dominated by the 30-confirmation wait (~12s), as the paper reports.
func TestSolanaConfirmationDepthLatency(t *testing.T) {
	sched, net := testNet(t, "solana", 4)
	w := wallet.New(wallet.FastScheme{}, "sol-conf", 1)
	client := net.NewClient(0)
	var latency time.Duration
	var submitAt time.Duration
	client.OnDecided = func(sub chain.Submission, s types.ExecStatus, at time.Duration) {
		latency = at - submitAt
	}
	net.Start()
	sched.After(time.Second, func() {
		tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
		w.Get(0).SignNext(tx)
		submitAt = sched.Now()
		client.Submit(tx, nil)
	})
	sched.RunUntil(60 * time.Second)
	net.Stop()
	if latency < 12*time.Second {
		t.Fatalf("solana latency %v, want >= 12s (30 confirmations x 400ms)", latency)
	}
	if latency > 25*time.Second {
		t.Fatalf("solana latency %v implausibly high", latency)
	}
}

// TestDeterministicRuns re-runs one chain with the same seed and expects
// identical ledgers.
func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		sched, net := testNet(t, "quorum", 7)
		w := wallet.New(wallet.FastScheme{}, "det", 10)
		client := net.NewClient(3)
		net.Start()
		for i := 0; i < 50; i++ {
			i := i
			sched.At(time.Duration(i)*50*time.Millisecond, func() {
				tx := &types.Transaction{Kind: types.KindTransfer, To: w.Get(0).Address, Value: 1, GasLimit: 21000, GasPrice: 1 << 30}
				w.Get(i % 10).SignNext(tx)
				client.Submit(tx, nil)
			})
		}
		sched.RunUntil(60 * time.Second)
		net.Stop()
		var txRootSum uint64
		for _, b := range net.Ledger() {
			root := b.TxRoot()
			txRootSum += uint64(root[0])
		}
		return net.Height(), txRootSum
	}
	h1, s1 := run()
	h2, s2 := run()
	if h1 != h2 || s1 != s2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", h1, s1, h2, s2)
	}
}
