package dapps

import (
	"math/rand"
	"testing"

	"diablo/internal/types"
	"diablo/internal/vm"
	"diablo/internal/vmprofiles"
)

// deploy compiles a DApp, runs its init function with an unmetered budget
// and returns the compiled contract plus its storage.
func deploy(t *testing.T, name string) (*DApp, interface {
	vm.Storage
	Len() int
}, func(fn string, ctx vm.Context, args ...uint64) vm.Result) {
	t.Helper()
	d, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	st := vmprofiles.NewCountingStorage()
	if d.InitFunc != "" {
		calldata, err := c.Calldata(d.InitFunc)
		if err != nil {
			t.Fatal(err)
		}
		res := vm.New().Execute(c.Code, &vm.Context{Storage: st, GasLimit: 100_000_000, Calldata: calldata})
		if res.Status != types.StatusOK {
			t.Fatalf("%s init: %v %v", name, res.Status, res.Err)
		}
	}
	call := func(fn string, ctx vm.Context, args ...uint64) vm.Result {
		calldata, err := c.Calldata(fn, args...)
		if err != nil {
			t.Fatalf("calldata %s: %v", fn, err)
		}
		ctx.Calldata = calldata
		if ctx.Storage == nil {
			ctx.Storage = st
		}
		if ctx.GasLimit == 0 {
			ctx.GasLimit = 100_000_000
		}
		return vm.New().Execute(c.Code, &ctx)
	}
	return d, st, call
}

func TestAllDAppsCompile(t *testing.T) {
	for _, name := range Names() {
		d, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := d.Compile()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(c.Code) == 0 {
			t.Fatalf("%s: empty bytecode", name)
		}
		for _, fn := range d.Functions {
			if _, ok := c.Functions[fn]; !ok {
				t.Fatalf("%s: workload function %q missing from ABI", name, fn)
			}
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown DApp accepted")
	}
}

func TestExchangeBuysDecrementSupply(t *testing.T) {
	_, _, call := deploy(t, "exchange")
	res := call("checkStock", vm.Context{}, 1)
	initial := res.Return
	for i := 0; i < 5; i++ {
		r := call("buyApple", vm.Context{})
		if r.Status != types.StatusOK {
			t.Fatalf("buyApple: %v %v", r.Status, r.Err)
		}
		if len(r.Events) != 1 || r.Events[0].Data[0] != 1 {
			t.Fatalf("trade event wrong: %+v", r.Events)
		}
	}
	if res := call("checkStock", vm.Context{}, 1); res.Return != initial-5 {
		t.Fatalf("apple stock = %d, want %d", res.Return, initial-5)
	}
	// Other stocks untouched.
	if res := call("checkStock", vm.Context{}, 0); res.Return != initial {
		t.Fatal("google stock changed by apple buys")
	}
	for _, fn := range []string{"buyGoogle", "buyFacebook", "buyAmazon", "buyMicrosoft"} {
		if r := call(fn, vm.Context{}); r.Status != types.StatusOK {
			t.Fatalf("%s: %v", fn, r.Status)
		}
	}
}

func TestDotaUpdateMovesPlayers(t *testing.T) {
	_, _, call := deploy(t, "dota")
	before := call("position", vm.Context{}, 3).Return
	r := call("update", vm.Context{}, 1, 1)
	if r.Status != types.StatusOK {
		t.Fatalf("update: %v %v", r.Status, r.Err)
	}
	after := call("position", vm.Context{}, 3).Return
	if after != before+1024+1 {
		t.Fatalf("player 3 moved %d -> %d, want +1 in x and y", before, after)
	}
	// Edge wrapping: push a player past the map limit.
	for i := 0; i < 300; i++ {
		call("update", vm.Context{}, 1, 1)
	}
	p := call("position", vm.Context{}, 9).Return
	x, y := p/1024, p%1024
	if x >= 250 || y >= 250 {
		t.Fatalf("player 9 left the map: (%d,%d)", x, y)
	}
}

func TestFifaCounter(t *testing.T) {
	_, _, call := deploy(t, "fifa")
	for i := 0; i < 10; i++ {
		if r := call("add", vm.Context{}); r.Status != types.StatusOK {
			t.Fatal(r.Status)
		}
	}
	if r := call("get", vm.Context{}); r.Return != 10 {
		t.Fatalf("count = %d, want 10", r.Return)
	}
}

func TestUberComputesDistance(t *testing.T) {
	_, _, call := deploy(t, "uber")
	// Driver at (7919, 4231); customer at (7922, 4235): distance 5.
	r := call("checkDistance", vm.Context{}, 7922, 4235)
	if r.Status != types.StatusOK {
		t.Fatalf("checkDistance: %v %v", r.Status, r.Err)
	}
	if r.Return != 5 {
		t.Fatalf("distance = %d, want 5", r.Return)
	}
	if len(r.Events) != 1 || r.Events[0].Data[0] != 5 {
		t.Fatalf("Matched event wrong: %+v", r.Events)
	}
}

func TestYoutubeUploadAssignsOwner(t *testing.T) {
	_, _, call := deploy(t, "youtube")
	ctx := vm.Context{Caller: 4242}
	r := call("upload", ctx, 0xabcdef, 300)
	if r.Status != types.StatusOK {
		t.Fatalf("upload: %v %v", r.Status, r.Err)
	}
	id := r.Return
	if own := call("ownerOf", vm.Context{}, id).Return; own != 4242 {
		t.Fatalf("ownerOf = %d, want 4242", own)
	}
	r2 := call("upload", ctx, 0x123, 300)
	if r2.Return != id+1 {
		t.Fatalf("second video id = %d, want %d", r2.Return, id+1)
	}
}

// TestGasBudgetOrdering verifies the gas relationships that drive the
// paper's universality result (Fig. 5): every DApp except the
// mobility-service contract fits within every hard VM budget, while the
// mobility-service contract exceeds all of them yet executes on geth.
func TestGasBudgetOrdering(t *testing.T) {
	gas := map[string]uint64{}
	calls := map[string]struct {
		fn   string
		args []uint64
	}{
		"exchange": {"buyApple", nil},
		"dota":     {"update", []uint64{1, 1}},
		"fifa":     {"add", nil},
		"uber":     {"checkDistance", []uint64{100, 100}},
		"youtube":  {"upload", []uint64{1, 300}},
	}
	for name, c := range calls {
		_, _, call := deploy(t, name)
		r := call(c.fn, vm.Context{}, c.args...)
		if r.Status != types.StatusOK {
			t.Fatalf("%s/%s: %v %v", name, c.fn, r.Status, r.Err)
		}
		gas[name] = r.GasUsed
		t.Logf("%-9s %-14s exec gas = %d", name, c.fn, r.GasUsed)
	}
	budgets := map[string]uint64{
		"movevm": vmprofiles.MoveVM.TxBudget,
		"avm":    vmprofiles.AVM.TxBudget,
		"ebpf":   vmprofiles.EBPF.TxBudget,
	}
	for prof, budget := range budgets {
		for _, cheap := range []string{"exchange", "dota", "fifa", "youtube"} {
			if gas[cheap] >= budget {
				t.Errorf("%s (%d gas) exceeds %s budget (%d): paper shape broken",
					cheap, gas[cheap], prof, budget)
			}
		}
		if gas["uber"] <= budget {
			t.Errorf("uber (%d gas) fits %s budget (%d): Figure 5 X's would not reproduce",
				gas["uber"], prof, budget)
		}
	}
}

// TestUberBudgetExceededOnHardCapVMs reproduces the experiment E2 outcome:
// the mobility-service DApp fails with "budget exceeded" on MoveVM, AVM and
// eBPF, and succeeds on geth.
func TestUberBudgetExceededOnHardCapVMs(t *testing.T) {
	d, _ := Get("uber")
	c, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*vmprofiles.Profile{vmprofiles.MoveVM, vmprofiles.AVM, vmprofiles.EBPF} {
		st := vmprofiles.NewCountingStorage()
		initData, _ := c.Calldata("init")
		vm.New().Execute(c.Code, &vm.Context{Storage: st, GasLimit: 100_000_000, Calldata: initData})
		calldata, _ := c.Calldata("checkDistance", 5, 5)
		res := p.Execute(vm.New(), vm.Decode(c.Code), &vm.Context{Storage: st, GasLimit: 100_000_000, Calldata: calldata})
		if res.Status != types.StatusBudgetExceeded {
			t.Errorf("%s: status = %v, want budget exceeded", p.Name, res.Status)
		}
	}
	// geth executes it fine.
	st := vmprofiles.NewCountingStorage()
	initData, _ := c.Calldata("init")
	vm.New().Execute(c.Code, &vm.Context{Storage: st, GasLimit: 100_000_000, Calldata: initData})
	calldata, _ := c.Calldata("checkDistance", 5, 5)
	res := vmprofiles.Geth.Execute(vm.New(), vm.Decode(c.Code), &vm.Context{Storage: st, GasLimit: 100_000_000, Calldata: calldata})
	if res.Status != types.StatusOK {
		t.Errorf("geth: status = %v, want ok", res.Status)
	}
}

// TestYoutubeOnAVM verifies both unsupportability signals: the registry
// marks the DApp unsupported on AVM, and the bounded state would fill up
// anyway.
func TestYoutubeOnAVM(t *testing.T) {
	d, _ := Get("youtube")
	if err := d.SupportedOn(vmprofiles.AVM); err == nil {
		t.Fatal("youtube should be unsupported on AVM")
	}
	for _, p := range []*vmprofiles.Profile{vmprofiles.Geth, vmprofiles.MoveVM, vmprofiles.EBPF} {
		if err := d.SupportedOn(p); err != nil {
			t.Fatalf("youtube should be supported on %s: %v", p.Name, err)
		}
	}
	for _, name := range []string{"exchange", "dota", "fifa", "uber"} {
		other, _ := Get(name)
		if err := other.SupportedOn(vmprofiles.AVM); err != nil {
			t.Fatalf("%s should be supported on AVM: %v", name, err)
		}
	}
}

// TestAVMStateLimitFillsUp drives uploads through the AVM profile until the
// bounded key-value store rejects new entries.
func TestAVMStateLimitFillsUp(t *testing.T) {
	d, _ := Get("youtube")
	c, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	st := vmprofiles.NewCountingStorage()
	initData, _ := c.Calldata("init")
	vm.New().Execute(c.Code, &vm.Context{Storage: st, GasLimit: 100_000_000, Calldata: initData})
	sawFull := false
	for i := 0; i < 100; i++ {
		calldata, _ := c.Calldata("upload", uint64(i), 300)
		res := vmprofiles.AVM.Execute(vm.New(), vm.Decode(c.Code), &vm.Context{
			Storage: st, GasLimit: 100_000_000, Calldata: calldata, Caller: 1,
		})
		if res.Status == types.StatusBudgetExceeded {
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("AVM state limit never triggered across 100 uploads")
	}
}

func TestArgGens(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range Names() {
		d, _ := Get(name)
		c, err := d.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range d.Functions {
			args := d.ArgGen(rng, fn)
			if _, err := c.Calldata(fn, args...); err != nil {
				t.Errorf("%s.%s: generated args invalid: %v", name, fn, err)
			}
		}
	}
}

func TestCompileCaching(t *testing.T) {
	d, _ := Get("fifa")
	a, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("compile cache miss for identical DApp")
	}
}

func BenchmarkDAppExecution(b *testing.B) {
	calls := map[string]struct {
		fn   string
		args []uint64
	}{
		"exchange": {"buyApple", nil},
		"dota":     {"update", []uint64{1, 1}},
		"fifa":     {"add", nil},
		"uber":     {"checkDistance", []uint64{100, 100}},
		"youtube":  {"upload", []uint64{1, 300}},
	}
	for _, name := range Names() {
		c := calls[name]
		b.Run(name, func(b *testing.B) {
			d, _ := Get(name)
			compiled, err := d.Compile()
			if err != nil {
				b.Fatal(err)
			}
			st := vmprofiles.NewCountingStorage()
			if d.InitFunc != "" {
				initData, _ := compiled.Calldata(d.InitFunc)
				vm.New().Execute(compiled.Code, &vm.Context{Storage: st, GasLimit: 100_000_000, Calldata: initData})
			}
			calldata, _ := compiled.Calldata(c.fn, c.args...)
			in := vm.New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := in.Execute(compiled.Code, &vm.Context{Storage: st, GasLimit: 100_000_000, Calldata: calldata, Caller: 1})
				if res.Status != types.StatusOK {
					b.Fatal(res.Status, res.Err)
				}
			}
		})
	}
}
