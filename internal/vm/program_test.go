package vm_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"diablo/internal/dapps"
	"diablo/internal/types"
	"diablo/internal/vm"
)

// tapeStorage is a small bounded store that writes down every call made to
// it, so that two executions can be compared access by access.
type tapeStorage struct {
	m    vm.MapStorage
	max  int
	tape []string
}

var errFull = errors.New("test: storage full")

// twoSlots is the state the calls of a test start from unless it says
// otherwise.
var twoSlots = vm.MapStorage{1: 11, 2: 22}

func newTape(init vm.MapStorage, max int) *tapeStorage {
	m := make(vm.MapStorage, len(init))
	for k, v := range init {
		m[k] = v
	}
	return &tapeStorage{m: m, max: max}
}

func (s *tapeStorage) Load(key uint64) uint64 {
	s.tape = append(s.tape, fmt.Sprint("load ", key))
	return s.m.Load(key)
}

func (s *tapeStorage) Store(key, value uint64) error {
	s.tape = append(s.tape, fmt.Sprint("store ", key, value))
	if !s.m.Exists(key) && len(s.m) >= s.max {
		return errFull
	}
	return s.m.Store(key, value)
}

func (s *tapeStorage) Exists(key uint64) bool {
	s.tape = append(s.tape, fmt.Sprint("exists ", key))
	return s.m.Exists(key)
}

func (s *tapeStorage) Delete(key uint64) {
	s.tape = append(s.tape, fmt.Sprint("delete ", key))
	s.m.Delete(key)
}

// outcome is everything a call leaves behind.
type outcome struct {
	Status  types.ExecStatus
	GasUsed uint64
	Return  uint64
	Events  []types.Event
	Err     string
	Final   vm.MapStorage
	Tape    []string
}

func outcomeOf(res vm.Result, st *tapeStorage) outcome {
	o := outcome{Status: res.Status, GasUsed: res.GasUsed, Return: res.Return, Events: res.Events, Final: st.m, Tape: st.tape}
	if res.Err != nil {
		o.Err = res.Err.Error()
	}
	return o
}

// interps are reused across calls, as the executor reuses its own, so that a
// call that leaves memory or stack behind shows in the next one.
var byteInterp, progInterp = vm.New(), vm.New()

// sameOutcome runs code through the byte-stream loop and, decoded, through
// Run, and fails the test where the two differ in any observable way.
func sameOutcome(t *testing.T, code []byte, ctx vm.Context, init vm.MapStorage, maxSlots int) outcome {
	t.Helper()
	a, b := ctx, ctx
	sa, sb := newTape(init, maxSlots), newTape(init, maxSlots)
	a.Storage, b.Storage = sa, sb
	want := outcomeOf(byteInterp.Execute(code, &a), sa)
	got := outcomeOf(progInterp.Run(vm.Decode(code), &b), sb)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Run differs from Execute\ngas limit %d, calldata %v\n%s\nRun:     %+v\nExecute: %+v",
			ctx.GasLimit, ctx.Calldata, vm.Disassemble(code), got, want)
	}
	return want
}

func asm(t *testing.T, src string) []byte {
	t.Helper()
	code, err := vm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// repeat returns n lines of instr.
func repeat(instr string, n int) string { return strings.Repeat(instr+"\n", n) }

// TestRunExactnessRules pins, one case each, the places where validating a
// block at its entry could change what a call reports, and checks each against
// the byte-stream loop and against the expected receipt.
func TestRunExactnessRules(t *testing.T) {
	push20 := []byte{byte(vm.PUSH), 0, 0, 0, 0, 0, 0, 0, byte(vm.JUMPDEST)} // PUSH 20: its last byte reads JUMPDEST
	cases := []struct {
		name     string
		code     []byte
		gas      uint64
		slots    int
		status   types.ExecStatus
		gasUsed  uint64
		ret      uint64
		errIs    error
		errText  string
		calldata []uint64
	}{
		{
			name: "out of gas inside a block uses the whole limit",
			code: asm(t, "PUSH 1\nPUSH 2\nADD\nPUSH 3\nADD\nRETURN"), gas: 10,
			status: types.StatusOutOfGas, gasUsed: 10, errIs: vm.ErrOutOfGas,
		},
		{
			name: "an invalid outcome earlier in the block beats out-of-gas later in it",
			code: asm(t, "PUSH 5000\nMLOAD\n"+repeat("PUSH 1\nPOP", 10)+"PUSH 0\nRETURN"), gas: 20,
			status: types.StatusInvalid, gasUsed: 6, errIs: vm.ErrMemoryBounds,
		},
		{
			name: "out-of-gas earlier in the block beats an invalid outcome later in it",
			code: asm(t, repeat("PUSH 1\nPOP", 4)+"POP\nPUSH 0\nRETURN"), gas: 20,
			status: types.StatusOutOfGas, gasUsed: 20, errIs: vm.ErrOutOfGas,
		},
		{
			name: "a dynamic MLOAD out of range gives back the gas of the instructions after it",
			code: asm(t, "PUSH 0\nCALLDATA\nMLOAD\nPUSH 1\nADD\nRETURN"), gas: 1000, calldata: []uint64{4096},
			status: types.StatusInvalid, gasUsed: 9, errIs: vm.ErrMemoryBounds,
		},
		{
			name: "a dynamic MSTORE out of range likewise",
			code: asm(t, "PUSH 0\nCALLDATA\nPUSH 7\nMSTORE\nPUSH 1\nRETURN"), gas: 1000, calldata: []uint64{1 << 40},
			status: types.StatusInvalid, gasUsed: 12, errIs: vm.ErrMemoryBounds,
		},
		{
			name: "GASREMAINING reads the gas left after itself, not after its block",
			code: asm(t, "PUSH 1\nGASREMAINING\nSWAP 1\nPOP\nPUSH 2\nPOP\nRETURN"), gas: 1000,
			status: types.StatusOK, gasUsed: 21, ret: 994,
		},
		{
			name: "SSTORE checks underflow before it charges",
			code: asm(t, "PUSH 1\nSSTORE"), gas: 100,
			status: types.StatusInvalid, gasUsed: 3, errIs: vm.ErrStackUnderflow,
		},
		{
			name: "SSTORE short of its dynamic price is out of gas",
			code: asm(t, "PUSH 9\nPUSH 1\nSSTORE\nSTOP"), gas: 19_999, slots: 8,
			status: types.StatusOutOfGas, gasUsed: 19_999, errIs: vm.ErrOutOfGas,
		},
		{
			name: "a Store error is budget exceeded at the gas spent so far",
			code: asm(t, "PUSH 9\nPUSH 1\nSSTORE\nPUSH 1\nPUSH 1\nADD\nRETURN"), gas: 100_000, slots: 2,
			status: types.StatusBudgetExceeded, gasUsed: 20_006, errIs: errFull,
		},
		{
			name: "STOP charges nothing",
			code: asm(t, "PUSH 1\nSTOP"), gas: 3,
			status: types.StatusOK, gasUsed: 3,
		},
		{
			name: "REVERT charges nothing and undoes writes",
			code: asm(t, "PUSH 9\nPUSH 1\nSSTORE\nREVERT"), gas: 100_000, slots: 8,
			status: types.StatusReverted, gasUsed: 20_006, errIs: vm.ErrReverted,
		},
		{
			name: "a fused PUSH;JUMP still needs its stack slot: overflow at depth 1024",
			code: asm(t, repeat("PUSH 1", 1024)+"PUSH @out\nJUMP\nout:\nSTOP"), gas: 1 << 30,
			status: types.StatusInvalid, gasUsed: 1025 * 3, errIs: vm.ErrStackOverflow,
		},
		{
			name: "a fused PUSH;MLOAD at depth 1024 overflows too",
			code: asm(t, repeat("PUSH 1", 1024)+"PUSH 3\nMLOAD\nSTOP"), gas: 1 << 30,
			status: types.StatusInvalid, gasUsed: 1025 * 3, errIs: vm.ErrStackOverflow,
		},
		{
			name: "depth 1024 itself is fine",
			code: asm(t, repeat("PUSH 1", 1023)+"PUSH 3\nMLOAD\nRETURN"), gas: 1 << 30,
			status: types.StatusOK, gasUsed: 1026 * 3,
		},
		{
			name: "a jump to the JUMPDEST byte of PUSH 20's immediate decodes from there",
			// 0: PUSH 8; 9: JUMP; 10: PUSH 20 (byte 18 is 0x14); from 18 the
			// stream reads JUMPDEST, then PUSH 7 at 19, RETURN at 28.
			code: concat(asm(t, "PUSH 18\nJUMP"), push20, asm(t, "PUSH 7\nRETURN")), gas: 1000,
			status: types.StatusOK, gasUsed: 3 + 8 + 3 + 3 + 3, ret: 7,
		},
		{
			name: "a jump to a byte that is not JUMPDEST is a bad jump",
			code: asm(t, "PUSH 1\nPUSH 0\nCALLDATA\nJUMP\nJUMPDEST\nSTOP"), gas: 1000, calldata: []uint64{3},
			status: types.StatusInvalid, gasUsed: 17, errIs: vm.ErrBadJump,
		},
		{
			name: "a dynamic jump to an aligned JUMPDEST continues unchecked",
			code: asm(t, "PUSH 0\nCALLDATA\nJUMP\nPUSH 1\nRETURN\nJUMPDEST\nPUSH 2\nRETURN"), gas: 1000, calldata: []uint64{21},
			status: types.StatusOK, gasUsed: 3 + 3 + 8 + 3 + 3 + 3, ret: 2,
		},
		{
			name: "a truncated PUSH", code: concat(asm(t, "PUSH 1"), []byte{byte(vm.PUSH), 1, 2}), gas: 1000,
			status: types.StatusInvalid, gasUsed: 3, errIs: vm.ErrTruncated,
		},
		{
			name: "a truncated DUP", code: concat(asm(t, "PUSH 1"), []byte{byte(vm.DUP)}), gas: 1000,
			status: types.StatusInvalid, gasUsed: 3, errIs: vm.ErrTruncated,
		},
		{
			name: "a truncated LOG", code: concat(asm(t, "PUSH 1"), []byte{byte(vm.LOG)}), gas: 1000,
			status: types.StatusInvalid, gasUsed: 3, errIs: vm.ErrTruncated,
		},
		{
			name: "an unknown opcode names itself and its pc",
			code: concat(asm(t, "PUSH 1"), []byte{0xEE}), gas: 1000,
			status: types.StatusInvalid, gasUsed: 3, errIs: vm.ErrBadOpcode, errText: "vm: invalid opcode: 238 at pc 9",
		},
		{
			name: "code after an unknown opcode is still reachable by a jump",
			code: concat(asm(t, "PUSH 11\nJUMP"), []byte{0xEE}, asm(t, "JUMPDEST\nPUSH 5\nRETURN")), gas: 1000,
			status: types.StatusOK, gasUsed: 3 + 8 + 3 + 3 + 3, ret: 5,
		},
		{
			name: "running off the end is a STOP",
			code: asm(t, "PUSH 1\nPUSH 2\nADD"), gas: 1000,
			status: types.StatusOK, gasUsed: 9,
		},
		{
			name: "empty code", code: nil, gas: 5,
			status: types.StatusOK,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			slots := tc.slots
			if slots == 0 {
				slots = 64
			}
			got := sameOutcome(t, tc.code, vm.Context{GasLimit: tc.gas, Calldata: tc.calldata}, twoSlots, slots)
			if got.Status != tc.status || got.GasUsed != tc.gasUsed || got.Return != tc.ret {
				t.Fatalf("status %v gas %d return %d, want %v %d %d (err %q)",
					got.Status, got.GasUsed, got.Return, tc.status, tc.gasUsed, tc.ret, got.Err)
			}
			if tc.errIs != nil && !strings.Contains(got.Err, tc.errIs.Error()) {
				t.Fatalf("error %q, want %q", got.Err, tc.errIs)
			}
			if tc.errText != "" && got.Err != tc.errText {
				t.Fatalf("error %q, want %q", got.Err, tc.errText)
			}
			if tc.status != types.StatusOK && len(got.Final) != 2 {
				t.Fatalf("a failed call left writes behind: %v", got.Final)
			}
		})
	}
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// randomProgram draws bytecode that is mostly well formed, with immediates
// biased towards the values the rules above turn on: jump targets inside the
// code, memory indices either side of the limit, and the odd wild byte.
func randomProgram(rng *rand.Rand) []byte {
	n := 1 + rng.Intn(60)
	var code []byte
	for i := 0; i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 35:
			var v uint64
			switch rng.Intn(6) {
			case 0:
				v = uint64(rng.Intn(4))
			case 1:
				v = uint64(rng.Intn(n * 4)) // a byte offset, often inside the code
			case 2:
				v = 4090 + uint64(rng.Intn(10))
			case 3:
				v = uint64(vm.JUMPDEST) // its low byte reads as a jump target
			case 4:
				v = rng.Uint64()
			default:
				v = uint64(rng.Intn(64))
			}
			code = append(code, byte(vm.PUSH))
			code = binary.BigEndian.AppendUint64(code, v)
		case r < 45:
			code = append(code, byte(vm.JUMPDEST))
		case r < 55:
			code = append(code, byte(vm.DUP+vm.Op(rng.Intn(2))), byte(rng.Intn(4)))
		case r < 58:
			code = append(code, byte(vm.LOG), byte(rng.Intn(3)))
		case r < 60:
			code = append(code, byte(rng.Intn(256)))
		default:
			code = append(code, byte(rng.Intn(int(vm.REVERT)+1)))
		}
	}
	if rng.Intn(10) == 0 {
		code = code[:len(code)-rng.Intn(min(len(code), 9))]
	}
	return code
}

func randomGas(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return uint64(rng.Intn(64))
	case 1:
		return uint64(rng.Intn(2000))
	default:
		return uint64(rng.Intn(60_000))
	}
}

// TestRunMatchesExecuteOnRandomPrograms is the differential oracle run as a
// plain test: random programs, gas limits and calldata, every observable
// compared.
func TestRunMatchesExecuteOnRandomPrograms(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	rng := rand.New(rand.NewSource(1))
	statuses := map[types.ExecStatus]int{}
	for i := 0; i < n; i++ {
		ctx := vm.Context{
			GasLimit: randomGas(rng),
			Calldata: []uint64{uint64(rng.Intn(80)), rng.Uint64()},
			Caller:   7, Value: 8, BlockNum: 9, BlockTime: 10,
		}
		statuses[sameOutcome(t, randomProgram(rng), ctx, twoSlots, 3+rng.Intn(3)).Status]++
	}
	t.Logf("outcomes over %d programs: %v", n, statuses)
	for _, s := range []types.ExecStatus{types.StatusOK, types.StatusInvalid, types.StatusOutOfGas, types.StatusReverted, types.StatusBudgetExceeded} {
		if statuses[s] == 0 {
			t.Errorf("no random program ended %v; the generator no longer covers it", s)
		}
	}
}

// dappNames are the seven contracts the repository compiles.
var dappNames = append(dapps.Names(), "nft", "dex")

// TestRunMatchesExecuteOnDApps calls every public function of every DApp
// after its init, at a gas limit that lets it finish and at several that cut
// it short.
func TestRunMatchesExecuteOnDApps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, name := range dappNames {
		d, err := dapps.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := d.Compile()
		if err != nil {
			t.Fatal(err)
		}
		state := vm.MapStorage{}
		for _, fn := range append([]string{d.InitFunc}, d.Functions...) {
			var args []uint64
			if fn != d.InitFunc {
				args = d.ArgGen(rng, fn)
			}
			calldata, err := c.Calldata(fn, args...)
			if err != nil {
				t.Fatal(err)
			}
			full := sameOutcome(t, c.Code, vm.Context{GasLimit: 100_000_000, Calldata: calldata, Caller: 5}, state, 1<<20)
			if full.Status != types.StatusOK {
				t.Fatalf("%s.%s: %v (%s)", name, fn, full.Status, full.Err)
			}
			for _, gas := range []uint64{0, 1, full.GasUsed / 3, full.GasUsed - 1, full.GasUsed} {
				sameOutcome(t, c.Code, vm.Context{GasLimit: gas, Calldata: calldata, Caller: 5}, state, 1<<20)
			}
			state = full.Final // the next function runs on what this one left
		}
	}
}

// TestProgramSharedByGoroutines runs one Program from four interpreters at
// once; under -race it shows that Run only reads it, so a Program may be
// shared.
func TestProgramSharedByGoroutines(t *testing.T) {
	d, err := dapps.Get("uber")
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	calldata, err := c.Calldata("checkDistance", 1234, 5678)
	if err != nil {
		t.Fatal(err)
	}
	p := vm.Decode(c.Code)
	gas := make([]uint64, 4)
	var wg sync.WaitGroup
	for i := range gas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := vm.New()
			for n := 0; n < 5; n++ {
				gas[i] = in.Run(p, &vm.Context{GasLimit: 10_000_000, Calldata: calldata, Storage: vm.MapStorage{}}).GasUsed
			}
		}()
	}
	wg.Wait()
	for _, g := range gas {
		if g == 0 || g != gas[0] {
			t.Fatalf("gas used differs between goroutines: %v", gas)
		}
	}
}

// FuzzProgramMatchesBytecode feeds arbitrary bytes, gas limits and calldata
// to both paths: Run never panics and never differs from Execute.
func FuzzProgramMatchesBytecode(f *testing.F) {
	for _, name := range dappNames {
		d, err := dapps.Get(name)
		if err != nil {
			f.Fatal(err)
		}
		c, err := d.Compile()
		if err != nil {
			f.Fatal(err)
		}
		calldata, err := c.Calldata(d.InitFunc)
		if err != nil {
			f.Fatal(err)
		}
		raw := binary.BigEndian.AppendUint64(nil, calldata[0])
		f.Add(c.Code, uint64(1_000_000), raw)
		f.Add(c.Code, uint64(20_500), raw)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 32; i++ {
		f.Add(randomProgram(rng), randomGas(rng), []byte{0, 0, 0, 0, 0, 0, 0, byte(i)})
	}
	f.Fuzz(func(t *testing.T, code []byte, gas uint64, raw []byte) {
		var calldata []uint64
		for ; len(raw) >= 8; raw = raw[8:] {
			calldata = append(calldata, binary.BigEndian.Uint64(raw))
		}
		// Gas bounds the run: nothing but STOP and REVERT is free.
		ctx := vm.Context{GasLimit: gas % 3_000_000, Calldata: calldata, Caller: 7, Value: 8, BlockNum: 9, BlockTime: 10}
		sameOutcome(t, code, ctx, twoSlots, 4)
	})
}

// BenchmarkUberCall times one checkDistance call, the unit of the uber-exec
// benchmark workload, on the byte-stream loop and on the decoded program.
func BenchmarkUberCall(b *testing.B) {
	d, err := dapps.Get("uber")
	if err != nil {
		b.Fatal(err)
	}
	c, err := d.Compile()
	if err != nil {
		b.Fatal(err)
	}
	st := vm.MapStorage{}
	in := vm.New()
	initData, _ := c.Calldata(d.InitFunc)
	in.Execute(c.Code, &vm.Context{GasLimit: 1 << 40, Calldata: initData, Storage: st})
	calldata, _ := c.Calldata("checkDistance", 1234, 5678)
	p := vm.Decode(c.Code)
	for _, gas := range []uint64{10_000_000, 120_000} {
		ctx := &vm.Context{GasLimit: gas, Calldata: calldata, Storage: st}
		b.Run(fmt.Sprintf("bytes/gas=%d", gas), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in.Execute(c.Code, ctx)
			}
		})
		b.Run(fmt.Sprintf("program/gas=%d", gas), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in.Run(p, ctx)
			}
		})
	}
}
