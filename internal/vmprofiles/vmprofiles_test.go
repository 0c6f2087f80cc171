package vmprofiles

import (
	"errors"
	"testing"

	"diablo/internal/types"
	"diablo/internal/vm"
)

// loopProgram burns gas forever.
func loopProgram(t *testing.T) []byte {
	t.Helper()
	code, err := vm.Assemble("loop:\nPUSH @loop\nJUMP")
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// cheapProgram stores one value and stops.
func cheapProgram(t *testing.T) []byte {
	t.Helper()
	code, err := vm.Assemble("PUSH 1\nPUSH 2\nSSTORE\nSTOP")
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func TestByName(t *testing.T) {
	for _, name := range []string{"geth", "movevm", "avm", "ebpf"} {
		p, err := ByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("ByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("wasm"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestGethHasNoHardBudget(t *testing.T) {
	if Geth.HardBudget() {
		t.Fatal("geth must not enforce a per-tx budget")
	}
	res := Geth.Execute(vm.New(), vm.Decode(loopProgram(t)), &vm.Context{
		Storage: vm.MapStorage{}, GasLimit: 5000,
	})
	// On geth, running out of the *sender's* gas is plain out-of-gas, not
	// the hard-cap "budget exceeded" error.
	if res.Status != types.StatusOutOfGas {
		t.Fatalf("status = %v, want out of gas", res.Status)
	}
}

func TestHardBudgetCapsExecution(t *testing.T) {
	for _, p := range []*Profile{MoveVM, AVM, EBPF} {
		if !p.HardBudget() {
			t.Fatalf("%s should enforce a budget", p.Name)
		}
		res := p.Execute(vm.New(), vm.Decode(loopProgram(t)), &vm.Context{
			Storage: vm.MapStorage{}, GasLimit: 100_000_000, // sender pays a lot
		})
		if res.Status != types.StatusBudgetExceeded {
			t.Fatalf("%s: status = %v, want budget exceeded", p.Name, res.Status)
		}
		if !errors.Is(res.Err, ErrBudgetExceeded) {
			t.Fatalf("%s: err = %v", p.Name, res.Err)
		}
		if res.GasUsed > p.TxBudget {
			t.Fatalf("%s: used %d gas above the %d budget", p.Name, res.GasUsed, p.TxBudget)
		}
	}
}

func TestBudgetNotChargedWhenUnderCap(t *testing.T) {
	res := MoveVM.Execute(vm.New(), vm.Decode(cheapProgram(t)), &vm.Context{
		Storage: vm.MapStorage{}, GasLimit: 100_000_000,
	})
	if res.Status != types.StatusOK {
		t.Fatalf("cheap program failed under MoveVM: %v", res.Status)
	}
}

func TestSenderGasLimitStillApplies(t *testing.T) {
	// A sender limit below the hard cap is the binding constraint, so the
	// outcome is plain out-of-gas — the hard budget was never reached.
	res := MoveVM.Execute(vm.New(), vm.Decode(loopProgram(t)), &vm.Context{
		Storage: vm.MapStorage{}, GasLimit: 5000,
	})
	if res.Status != types.StatusOutOfGas {
		t.Fatalf("status = %v, want out of gas", res.Status)
	}
	// A sender limit exactly at the cap that runs dry is the budget error.
	res = MoveVM.Execute(vm.New(), vm.Decode(loopProgram(t)), &vm.Context{
		Storage: vm.MapStorage{}, GasLimit: MoveVM.TxBudget,
	})
	if res.Status != types.StatusBudgetExceeded {
		t.Fatalf("status = %v, want budget exceeded", res.Status)
	}
}

func TestAVMStateBound(t *testing.T) {
	st := NewCountingStorage()
	in := vm.New()
	// Write distinct slots until the 64-entry bound trips.
	var hitLimit bool
	for i := uint64(0); i < 100; i++ {
		a := vm.NewAssembler().Push(i).Push(1).Op(vm.SSTORE).Op(vm.STOP)
		res := AVM.Execute(in, vm.Decode(a.MustBuild()), &vm.Context{Storage: st, GasLimit: 1_000_000})
		if res.Status == types.StatusBudgetExceeded {
			hitLimit = true
			if st.Len() != AVM.MaxStateEntries {
				t.Fatalf("limit hit at %d entries, want %d", st.Len(), AVM.MaxStateEntries)
			}
			break
		}
	}
	if !hitLimit {
		t.Fatal("AVM state bound never enforced")
	}
	// Updates to existing slots still work at the limit.
	a := vm.NewAssembler().Push(0).Push(9).Op(vm.SSTORE).Op(vm.STOP)
	res := AVM.Execute(in, vm.Decode(a.MustBuild()), &vm.Context{Storage: st, GasLimit: 1_000_000})
	if res.Status != types.StatusOK {
		t.Fatalf("update at state limit failed: %v", res.Status)
	}
	if st.Load(0) != 9 {
		t.Fatal("update not applied")
	}
}

func TestCountingStorage(t *testing.T) {
	st := NewCountingStorage()
	if st.Len() != 0 {
		t.Fatal("fresh store not empty")
	}
	st.Store(1, 10)
	st.Store(2, 20)
	st.Store(1, 11)
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	if !st.Exists(1) || st.Load(1) != 11 {
		t.Fatal("Load/Exists wrong")
	}
	st.Delete(1)
	if st.Exists(1) || st.Len() != 1 {
		t.Fatal("Delete wrong")
	}
}
