package chain

import (
	"strings"
	"testing"

	"diablo/internal/dapps"
	"diablo/internal/minisol"
	"diablo/internal/types"
	"diablo/internal/vm"
	"diablo/internal/vmprofiles"
	"diablo/internal/wallet"
)

func newExec(t *testing.T) *Executor {
	t.Helper()
	return NewExecutor(vmprofiles.Geth)
}

func TestGenesisBalancesAndTransfers(t *testing.T) {
	e := newExec(t)
	a, b := types.Address{1}, types.Address{2}
	if e.Balance(a) != GenesisBalance {
		t.Fatal("genesis balance missing")
	}
	blk := &types.Block{Number: 1}
	tx := &types.Transaction{Kind: types.KindTransfer, From: a, To: b, Value: 100, GasLimit: 21000}
	r := e.Apply(tx, blk, Params{})
	if r.Status != types.StatusOK || r.GasUsed != vm.GasTxBase {
		t.Fatalf("receipt = %+v", r)
	}
	if e.Balance(a) != GenesisBalance-100 || e.Balance(b) != GenesisBalance+100 {
		t.Fatal("balances not moved")
	}
	if e.NextNonce(a) != 1 {
		t.Fatalf("nonce = %d", e.NextNonce(a))
	}
	// Over-balance transfer fails.
	huge := &types.Transaction{Kind: types.KindTransfer, From: a, To: b, Value: 1 << 63, GasLimit: 21000}
	if r := e.Apply(huge, blk, Params{}); r.Status != types.StatusInvalid {
		t.Fatalf("over-balance status = %v", r.Status)
	}
}

func TestInvokePaths(t *testing.T) {
	e := newExec(t)
	d, _ := dapps.Get("fifa")
	compiled, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	owner := types.Address{9}
	c, err := e.DeployContract(owner, compiled, d.InitFunc)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := e.Contract(c.Address); !ok || got != c {
		t.Fatal("Contract lookup failed")
	}
	blk := &types.Block{Number: 2}
	params := Params{DefaultGasLimit: 1_000_000}
	calldata, _ := compiled.Calldata("add")

	// Happy path.
	tx := &types.Transaction{Kind: types.KindInvoke, From: types.Address{3}, To: c.Address, Data: EncodeInvokeData(calldata, 0)}
	if r := e.Apply(tx, blk, params); r.Status != types.StatusOK || r.GasUsed <= vm.GasTxBase {
		t.Fatalf("invoke receipt = %+v", r)
	}
	// No contract at address.
	ghost := &types.Transaction{Kind: types.KindInvoke, From: types.Address{3}, To: types.Address{0x42}, Data: EncodeInvokeData(calldata, 0), Nonce: 1}
	if r := e.Apply(ghost, blk, params); r.Status != types.StatusInvalid || !strings.Contains(r.Error, "no contract") {
		t.Fatalf("ghost receipt = %+v", r)
	}
	// Intrinsic gas exceeds the limit.
	tiny := &types.Transaction{Kind: types.KindInvoke, From: types.Address{3}, To: c.Address, Data: EncodeInvokeData(calldata, 0), GasLimit: 100, Nonce: 2}
	if r := e.Apply(tiny, blk, params); r.Status != types.StatusOutOfGas {
		t.Fatalf("tiny receipt = %+v", r)
	}
}

func TestDeployContractNonceAndInitFailure(t *testing.T) {
	e := newExec(t)
	owner := types.Address{7}
	d, _ := dapps.Get("fifa")
	compiled, _ := d.Compile()
	c1, err := e.DeployContract(owner, compiled, d.InitFunc)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := e.DeployContract(owner, compiled, d.InitFunc)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Address == c2.Address {
		t.Fatal("sequential deployments collided")
	}
	if e.NextNonce(owner) != 2 {
		t.Fatalf("owner nonce = %d", e.NextNonce(owner))
	}
	// A bad init function is a deploy error.
	if _, err := e.DeployContract(owner, compiled, "nope"); err == nil {
		t.Fatal("bad init accepted")
	}
	// A reverting init is a deploy error too.
	reverting, err := minisol.Compile(`contract R { function init() public { revert(); } }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeployContract(owner, reverting, "init"); err == nil {
		t.Fatal("reverting init accepted")
	}
}

func TestInBandDeploy(t *testing.T) {
	e := newExec(t)
	blk := &types.Block{Number: 1}
	code := []byte{byte(vm.STOP)}
	tx := &types.Transaction{Kind: types.KindDeploy, From: types.Address{5}, Data: code}
	r := e.Apply(tx, blk, Params{})
	if r.Status != types.StatusOK || r.Contract.IsZero() {
		t.Fatalf("deploy receipt = %+v", r)
	}
	if _, ok := e.Contract(r.Contract); !ok {
		t.Fatal("deployed contract missing")
	}
}

func TestGasCeiling(t *testing.T) {
	e := newExec(t)
	params := Params{DefaultGasLimit: 5_000_000}
	transfer := &types.Transaction{Kind: types.KindTransfer, GasLimit: 21000}
	if g := e.GasCeiling(transfer, params); g != vm.GasTxBase {
		t.Fatalf("transfer ceiling = %d", g)
	}
	// Cold invoke: the sender's limit (or the default) is the ceiling.
	invoke := &types.Transaction{Kind: types.KindInvoke, To: types.Address{1}, Data: make([]byte, 8)}
	if g := e.GasCeiling(invoke, params); g != params.DefaultGasLimit {
		t.Fatalf("cold ceiling = %d", g)
	}
	invoke.GasLimit = 100_000
	if g := e.GasCeiling(invoke, params); g != 100_000 {
		t.Fatalf("explicit ceiling = %d", g)
	}
	// Warm invoke: the ceiling tightens to the measured average.
	d, _ := dapps.Get("fifa")
	compiled, _ := d.Compile()
	c, _ := e.DeployContract(types.Address{9}, compiled, d.InitFunc)
	calldata, _ := compiled.Calldata("add")
	warm := &types.Transaction{Kind: types.KindInvoke, From: types.Address{3}, To: c.Address, Data: EncodeInvokeData(calldata, 0), GasLimit: 1_000_000}
	measured := e.Apply(warm, &types.Block{Number: 1}, params).GasUsed
	warm2 := *warm
	warm2.Nonce = 1
	if g := e.GasCeiling(&warm2, params); g != measured {
		t.Fatalf("warm ceiling = %d, want measured %d", g, measured)
	}
}

func TestEncodeDecodeCalldata(t *testing.T) {
	words := []uint64{0xdead, 1, 2, 3}
	data := EncodeInvokeData(words, 5) // 5 opaque payload bytes
	if len(data) != 4*8+5 {
		t.Fatalf("len = %d", len(data))
	}
	got := newEngine().decodeCalldata(data)
	if len(got) != 4 {
		t.Fatalf("decoded %d words", len(got))
	}
	for i, w := range words {
		if got[i] != w {
			t.Fatalf("word %d = %d", i, got[i])
		}
	}
}

func TestNodeAddressStable(t *testing.T) {
	if nodeAddress(1) == nodeAddress(2) {
		t.Fatal("node addresses collide")
	}
	if nodeAddress(1) != nodeAddress(1) {
		t.Fatal("node address unstable")
	}
}

func TestUnknownKindReceipt(t *testing.T) {
	e := newExec(t)
	tx := &types.Transaction{Kind: types.TxKind(9)}
	if r := e.Apply(tx, &types.Block{Number: 1}, Params{}); r.Status != types.StatusInvalid {
		t.Fatalf("status = %v", r.Status)
	}
}

var _ = wallet.FastScheme{} // silence import when assertions change

// TestInterpretedCallAllocationBudget pins what one fully interpreted Uber
// call allocates through Executor.Apply, nonce and cache bookkeeping
// included, on the geth profile (it completes and logs an event) and on the
// AVM (it aborts on the opcode budget). Interpreting itself allocates
// nothing: the interpreter, its memory, the calldata buffer and the
// budget-exceeded error are all reused from call to call.
func TestInterpretedCallAllocationBudget(t *testing.T) {
	d, err := dapps.Get("uber")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		profile *vmprofiles.Profile
		status  types.ExecStatus
		// geth: the receipt, the event slice, its name and its argument
		// words. AVM: the receipt alone.
		allocs float64
	}{
		{vmprofiles.Geth, types.StatusOK, 4},
		{vmprofiles.AVM, types.StatusBudgetExceeded, 1},
	} {
		e := NewExecutor(tc.profile) // CacheAfter 0: every call is interpreted
		c, err := e.DeployDApp(types.Address{9}, d)
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.InvokeData("checkDistance", []uint64{1234, 5678}, 0)
		if err != nil {
			t.Fatal(err)
		}
		tx := &types.Transaction{Kind: types.KindInvoke, From: types.Address{3}, To: c.Address, GasLimit: 5_000_000, Data: data}
		tx.ID()
		blk, params := &types.Block{Number: 1}, Params{}
		if r := e.Apply(tx, blk, params); r.Status != tc.status {
			t.Fatalf("%s: %v (%s)", tc.profile.Name, r.Status, r.Error)
		}
		if got := testing.AllocsPerRun(20, func() { e.Apply(tx, blk, params) }); got != tc.allocs {
			t.Errorf("%s: %.0f allocations per interpreted call, want %.0f", tc.profile.Name, got, tc.allocs)
		}
		if e.Replayed != 0 {
			t.Fatalf("%s: %d calls replayed from the gas cache", tc.profile.Name, e.Replayed)
		}
	}
}
