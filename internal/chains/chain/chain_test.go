package chain

import (
	"testing"
	"time"

	"diablo/internal/mempool"
	"diablo/internal/sim"
	"diablo/internal/simnet"
	"diablo/internal/types"
	"diablo/internal/vmprofiles"
	"diablo/internal/wallet"
)

// stubEngine lets harness tests drive assembly and delivery manually.
type stubEngine struct{ started, stopped bool }

func (s *stubEngine) Start() { s.started = true }
func (s *stubEngine) Stop()  { s.stopped = true }

func testParams() Params {
	return Params{
		Name: "testchain", Consensus: "stub", Guarantee: "det.",
		VM: "geth", Lang: "Solidity",
		Profile:          vmprofiles.Geth,
		MinBlockInterval: time.Second,
		DefaultGasLimit:  5_000_000,
		GasPerSecPerVCPU: 100_000_000,
		NewEngine:        func(*Network) Engine { return &stubEngine{} },
	}
}

func deployTest(t *testing.T, params Params, nodes int) (*sim.Scheduler, *Network) {
	t.Helper()
	sched := sim.NewScheduler(5)
	wan := simnet.New(sched)
	net := Deploy(sched, wan, params, Deployment{Nodes: nodes, VCPUs: 8, Regions: simnet.AllRegions()})
	return sched, net
}

func signedTransfer(w *wallet.Wallet, i int) *types.Transaction {
	tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{9}, Value: 1, GasLimit: 21000}
	w.Get(i % w.Len()).SignNext(tx)
	return tx
}

func TestDeployAndStartStop(t *testing.T) {
	_, net := deployTest(t, testParams(), 5)
	if len(net.Nodes) != 5 || net.VCPUs != 8 {
		t.Fatalf("deployment wrong: %v", net)
	}
	eng := net.Engine().(*stubEngine)
	net.Start()
	if !eng.started {
		t.Fatal("engine not started")
	}
	net.Stop()
	if !eng.stopped {
		t.Fatal("engine not stopped")
	}
	if got := net.String(); got != "testchain[5 nodes, 8 vCPUs]" {
		t.Fatalf("String = %q", got)
	}
}

func TestAssembleBlockBasics(t *testing.T) {
	sched, net := deployTest(t, testParams(), 3)
	w := wallet.New(wallet.FastScheme{}, "asm", 5)

	// Empty pool, no empty blocks allowed.
	if blk, _ := net.AssembleBlock(0, false); blk != nil {
		t.Fatal("assembled a block from an empty pool")
	}
	// Empty blocks allowed.
	blk, cost := net.AssembleBlock(0, true)
	if blk == nil || len(blk.Txs) != 0 || blk.Number != 1 {
		t.Fatalf("empty block wrong: %+v", blk)
	}
	if cost.Assemble != 0 || cost.Validate != 0 {
		t.Fatalf("empty block cost = %+v", cost)
	}

	// Submit and assemble.
	for i := 0; i < 10; i++ {
		if err := net.Nodes[0].SubmitTx(signedTransfer(w, i)); err != nil {
			t.Fatal(err)
		}
	}
	sched.RunFor(time.Second) // let visibility elapse
	blk2, cost2 := net.AssembleBlock(0, false)
	if blk2 == nil || len(blk2.Txs) != 10 {
		t.Fatalf("block2 = %+v", blk2)
	}
	if blk2.Number != 2 || blk2.Parent != blk.Hash() {
		t.Fatal("chain linkage broken")
	}
	if blk2.GasUsed != 10*21000 {
		t.Fatalf("gas used = %d", blk2.GasUsed)
	}
	if cost2.Validate <= 0 || cost2.Assemble < cost2.Validate {
		t.Fatalf("cost2 = %+v", cost2)
	}
	if net.Height() != 2 || len(net.Ledger()) != 2 {
		t.Fatal("ledger bookkeeping wrong")
	}
	// Receipts exist for every included transaction.
	for _, tx := range blk2.Txs {
		r, ok := net.Receipt(tx.ID())
		if !ok || r.Status != types.StatusOK {
			t.Fatalf("receipt missing or failed: %v", r)
		}
	}
}

func TestVisibilityDelaysAssembly(t *testing.T) {
	_, net := deployTest(t, testParams(), 10)
	w := wallet.New(wallet.FastScheme{}, "vis", 2)
	// Submit at node 0 (cape-town); assemble immediately at a distant node.
	if err := net.Nodes[0].SubmitTx(signedTransfer(w, 0)); err != nil {
		t.Fatal(err)
	}
	if blk, _ := net.AssembleBlock(3, false); blk != nil {
		t.Fatal("distant proposer saw the transaction instantly")
	}
	// The local node sees it at once.
	if blk, _ := net.AssembleBlock(0, false); blk == nil {
		t.Fatal("local proposer did not see its own submission")
	}
}

func TestSerialInvokeCost(t *testing.T) {
	params := testParams()
	params.SerialInvokePerTx = 10 * time.Millisecond
	sched, net := deployTest(t, params, 2)
	w := wallet.New(wallet.FastScheme{}, "serial", 2)

	// Transfers carry no serial cost.
	for i := 0; i < 5; i++ {
		net.Nodes[0].SubmitTx(signedTransfer(w, i))
	}
	sched.RunFor(time.Second)
	_, cost := net.AssembleBlock(0, false)
	if cost.Assemble != cost.Validate {
		t.Fatalf("transfers should have no serial component: %+v", cost)
	}

	// A serial budget bounds how many invokes fit one assembly.
	deployer := wallet.NewAccount(wallet.FastScheme{}, []byte("d"))
	net.Exec.balances[deployer.Address] = GenesisBalance
	for i := 0; i < 20; i++ {
		tx := &types.Transaction{Kind: types.KindInvoke, To: types.Address{7}, GasLimit: 50000, Data: make([]byte, 8)}
		w.Get(0).SignNext(tx)
		net.Nodes[0].SubmitTx(tx)
	}
	sched.RunFor(time.Second)
	blk, cost := net.AssembleBlockBudgeted(0, false, 0, 50*time.Millisecond)
	if blk == nil {
		t.Fatal("no block")
	}
	if len(blk.Txs) != 5 { // 50ms / 10ms per invoke
		t.Fatalf("budgeted assembly took %d invokes, want 5", len(blk.Txs))
	}
	if cost.Assemble-cost.Validate != 5*10*time.Millisecond {
		t.Fatalf("serial component = %v", cost.Assemble-cost.Validate)
	}
}

func TestDeliverBlockNotifiesOnlyOriginClients(t *testing.T) {
	sched, net := deployTest(t, testParams(), 4)
	w := wallet.New(wallet.FastScheme{}, "deliver", 2)
	c0 := net.NewClient(0)
	c1 := net.NewClient(1)
	var got0, got1 int
	c0.OnDecided = func(Submission, types.ExecStatus, time.Duration) { got0++ }
	c1.OnDecided = func(Submission, types.ExecStatus, time.Duration) { got1++ }

	tx := signedTransfer(w, 0)
	c0.Submit(tx, nil)
	sched.RunFor(time.Second)
	blk, _ := net.AssembleBlock(0, false)
	if blk == nil {
		t.Fatal("no block")
	}
	// Deliver to node 1 first: client 1 did not submit it, so nothing
	// fires; deliver to node 0: client 0 decides.
	net.DeliverBlock(1, blk)
	if got1 != 0 {
		t.Fatal("foreign client notified")
	}
	net.DeliverBlock(0, blk)
	if got0 != 1 {
		t.Fatal("origin client not notified")
	}
	// Duplicate delivery is idempotent.
	net.DeliverBlock(0, blk)
	if got0 != 1 {
		t.Fatal("duplicate delivery double-fired")
	}
	if c0.Pending() != 0 {
		t.Fatalf("pending = %d", c0.Pending())
	}
	if c0.NodeIndex() != 0 || c1.NodeIndex() != 1 {
		t.Fatal("NodeIndex wrong")
	}
}

func TestConfirmDepthDefersDecision(t *testing.T) {
	params := testParams()
	params.ConfirmDepth = 2
	sched, net := deployTest(t, params, 2)
	deliverToAll := func(blk *types.Block) {
		for i := range net.Nodes {
			net.DeliverBlock(i, blk)
		}
	}
	w := wallet.New(wallet.FastScheme{}, "conf", 2)
	c := net.NewClient(0)
	decided := 0
	c.OnDecided = func(Submission, types.ExecStatus, time.Duration) { decided++ }
	c.Submit(signedTransfer(w, 0), nil)
	sched.RunFor(time.Second)

	blk1, _ := net.AssembleBlock(0, false)
	deliverToAll(blk1)
	if decided != 0 {
		t.Fatal("decided before confirmation depth")
	}
	blk2, _ := net.AssembleBlock(0, true)
	deliverToAll(blk2)
	if decided != 0 {
		t.Fatal("decided one block early")
	}
	blk3, _ := net.AssembleBlock(0, true)
	deliverToAll(blk3)
	if decided != 1 {
		t.Fatalf("decided = %d after depth reached", decided)
	}
}

func TestSubmitToCrashedNetwork(t *testing.T) {
	params := testParams()
	params.OverloadCrashExcess = 1 // hair trigger
	params.VerifyPerSecPerVCPU = 1 // capacity 8/s
	sched, net := deployTest(t, params, 2)
	w := wallet.New(wallet.FastScheme{}, "crashnet", 50)
	// Flood within one second, then cross the second boundary to close
	// the accounting window.
	for i := 0; i < 50; i++ {
		net.Nodes[0].SubmitTx(signedTransfer(w, i))
	}
	sched.RunFor(1100 * time.Millisecond)
	if err := net.Nodes[0].SubmitTx(signedTransfer(w, 0)); err == nil {
		t.Fatal("submission after collapse accepted")
	}
	if !net.Crashed() {
		t.Fatal("network did not crash")
	}
	eng := net.Engine().(*stubEngine)
	if !eng.stopped {
		t.Fatal("crash did not stop the engine")
	}
}

func TestOverloadRatio(t *testing.T) {
	params := testParams()
	params.VerifyPerSecPerVCPU = 10 // capacity 80/s
	sched, net := deployTest(t, params, 2)
	if r := net.OverloadRatio(); r != 1 {
		t.Fatalf("idle ratio = %v", r)
	}
	w := wallet.New(wallet.FastScheme{}, "ratio", 200)
	for i := 0; i < 160; i++ {
		net.Nodes[0].SubmitTx(signedTransfer(w, i))
	}
	if r := net.OverloadRatio(); r < 1.9 || r > 2.1 {
		t.Fatalf("overload ratio = %v, want ~2", r)
	}
	// A quiet second restores the ratio.
	sched.RunFor(3 * time.Second)
	net.Nodes[0].SubmitTx(signedTransfer(w, 161))
	if r := net.OverloadRatio(); r != 1 {
		t.Fatalf("post-quiet ratio = %v", r)
	}
}

func TestGossipReachesAllNodes(t *testing.T) {
	sched, net := deployTest(t, testParams(), 50)
	reached := make(map[int]time.Duration)
	net.Gossip(7, 10_000, DefaultFanout, func(idx int, at time.Duration) {
		reached[idx] = at
	})
	sched.Run()
	if len(reached) != 50 {
		t.Fatalf("gossip reached %d/50 nodes", len(reached))
	}
	if reached[7] != 0 {
		t.Fatal("root not delivered immediately")
	}
	var max time.Duration
	for _, at := range reached {
		if at > max {
			max = at
		}
	}
	if max <= 0 || max > 5*time.Second {
		t.Fatalf("implausible propagation time %v", max)
	}
}

func TestExecTimeAndBlockExecTime(t *testing.T) {
	params := testParams()
	params.ProcPerTxPerVCPU = 8 * time.Millisecond
	_, net := deployTest(t, params, 2)
	// 100M gas/s/vCPU x 8 vCPUs = 800M gas/s.
	if got := net.ExecTime(800_000_000); got != time.Second {
		t.Fatalf("ExecTime = %v", got)
	}
	// + 10 txs x 8ms / 8 vCPUs = 10ms.
	if got := net.BlockExecTime(800_000_000, 10); got != time.Second+10*time.Millisecond {
		t.Fatalf("BlockExecTime = %v", got)
	}
	params.GasPerSecPerVCPU = 0
	_, net2 := deployTest(t, params, 2)
	if got := net2.ExecTime(1000); got != 0 {
		t.Fatalf("zero-speed ExecTime = %v", got)
	}
}

func TestMempoolPolicyWiring(t *testing.T) {
	params := testParams()
	params.Mempool = mempool.Policy{Capacity: 3}
	_, net := deployTest(t, params, 2)
	w := wallet.New(wallet.FastScheme{}, "cap", 10)
	for i := 0; i < 3; i++ {
		if err := net.Nodes[0].SubmitTx(signedTransfer(w, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Nodes[0].SubmitTx(signedTransfer(w, 3)); err == nil {
		t.Fatal("over-capacity submission accepted")
	}
	if net.Pool.Dropped() != 1 {
		t.Fatalf("dropped = %d", net.Pool.Dropped())
	}
}

func TestStateCommitments(t *testing.T) {
	w := wallet.New(wallet.FastScheme{}, "commit", 5)
	run := func(kind string) []types.Hash {
		params := testParams()
		params.StateCommitment = kind
		sched, net := deployTest(t, params, 2)
		var roots []types.Hash
		for b := 0; b < 3; b++ {
			for i := 0; i < 3; i++ {
				tx := &types.Transaction{Kind: types.KindTransfer, To: types.Address{byte(b*3 + i)}, Value: 1, GasLimit: 21000}
				w.Get(i).SignNext(tx)
				net.Nodes[0].SubmitTx(tx)
			}
			sched.RunFor(time.Second)
			blk, _ := net.AssembleBlock(0, false)
			if blk == nil {
				t.Fatal("no block")
			}
			roots = append(roots, blk.StateRoot)
		}
		return roots
	}
	// Disabled: zero roots.
	for _, r := range run("") {
		if !r.IsZero() {
			t.Fatal("commitment disabled but root set")
		}
	}
	// Trie: roots change per block and are deterministic.
	w = wallet.New(wallet.FastScheme{}, "commit", 5)
	trieRoots := run("trie")
	if trieRoots[0].IsZero() || trieRoots[0] == trieRoots[1] || trieRoots[1] == trieRoots[2] {
		t.Fatalf("trie roots wrong: %v", trieRoots)
	}
	w = wallet.New(wallet.FastScheme{}, "commit", 5)
	again := run("trie")
	for i := range trieRoots {
		if trieRoots[i] != again[i] {
			t.Fatal("trie roots not deterministic")
		}
	}
	// Flat: also non-zero and evolving, but a different structure than
	// the trie (Solana's accumulator is order-dependent).
	w = wallet.New(wallet.FastScheme{}, "commit", 5)
	flatRoots := run("flat")
	if flatRoots[0].IsZero() || flatRoots[0] == trieRoots[0] {
		t.Fatalf("flat root should differ from trie root")
	}
}

func TestTxTTLExpiresStaleTransactions(t *testing.T) {
	// Solana's recent-blockhash rule: transactions older than the TTL are
	// permanently invalid (§5.2).
	params := testParams()
	params.TxTTL = time.Second
	sched, net := deployTest(t, params, 2)
	w := wallet.New(wallet.FastScheme{}, "ttl", 2)
	if err := net.Nodes[0].SubmitTx(signedTransfer(w, 0)); err != nil {
		t.Fatal(err)
	}
	// Within the TTL the transaction is assemblable...
	sched.RunFor(500 * time.Millisecond)
	if blk, _ := net.AssembleBlock(0, false); blk == nil {
		t.Fatal("fresh transaction not assemblable")
	}
	// ...but one that waits past the TTL is dropped at assembly.
	if err := net.Nodes[0].SubmitTx(signedTransfer(w, 1)); err != nil {
		t.Fatal(err)
	}
	sched.RunFor(2 * time.Second)
	if blk, _ := net.AssembleBlock(0, false); blk != nil {
		t.Fatal("expired transaction assembled")
	}
	if net.Pool.Len() != 0 {
		t.Fatalf("expired entry still pooled")
	}
	if net.Pool.Dropped() == 0 {
		t.Fatal("expiry not counted as a drop")
	}
}
