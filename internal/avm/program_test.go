package avm_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"diablo/internal/avm"
	"diablo/internal/dapps"
)

// tapeKV is a bounded store that writes down every call made to it, so that
// two executions can be compared access by access.
type tapeKV struct {
	kv   *avm.MapKV
	tape []string
}

// newTapeKV copies init into a store bounded to max entries.
func newTapeKV(init map[uint64]uint64, max int) *tapeKV {
	kv := avm.NewMapKV(max)
	for k, v := range init {
		kv.M[k] = v
	}
	return &tapeKV{kv: kv}
}

func (s *tapeKV) Get(key uint64) (uint64, bool) {
	s.tape = append(s.tape, fmt.Sprint("get ", key))
	return s.kv.Get(key)
}

func (s *tapeKV) Put(key, value uint64) error {
	s.tape = append(s.tape, fmt.Sprint("put ", key, value))
	return s.kv.Put(key, value)
}

func (s *tapeKV) Delete(key uint64) {
	s.tape = append(s.tape, fmt.Sprint("delete ", key))
	s.kv.Delete(key)
}

func (s *tapeKV) Len() int {
	s.tape = append(s.tape, "len")
	return s.kv.Len()
}

// outcome is everything a call leaves behind.
type outcome struct {
	Outcome avm.Outcome
	OpsUsed uint64
	Events  []avm.Event
	Err     string
	Final   map[uint64]uint64
	Tape    []string
}

func outcomeOf(res avm.Result, st *tapeKV) outcome {
	o := outcome{Outcome: res.Outcome, OpsUsed: res.OpsUsed, Events: res.Events, Final: st.kv.M, Tape: st.tape}
	if res.Err != nil {
		o.Err = res.Err.Error()
	}
	return o
}

// twoKeys is the state the calls of a test start from unless it says
// otherwise.
var twoKeys = map[uint64]uint64{1: 11, 2: 22}

// The machines are reused across calls, as the executor reuses its own, so
// that a call that leaves scratch, stack or call frames behind shows in the
// next one.
var byteMachine, progMachine = avm.NewMachine(), avm.NewMachine()

// sameOutcome runs program through the pre-Machine Execute kept in
// reference_test.go, through the byte-stream loop and, decoded, through Run,
// and fails the test where any two differ in any observable way.
func sameOutcome(t *testing.T, program []byte, ctx avm.Context, init map[uint64]uint64, maxKeys int) outcome {
	t.Helper()
	r, a, b := ctx, ctx, ctx
	sr, sa, sb := newTapeKV(init, maxKeys), newTapeKV(init, maxKeys), newTapeKV(init, maxKeys)
	r.State, a.State, b.State = sr, sa, sb
	want := outcomeOf(avm.ReferenceExecute(program, &r), sr)
	for _, got := range []struct {
		path string
		outcome
	}{
		{"Execute", outcomeOf(byteMachine.Execute(program, &a), sa)},
		{"Run", outcomeOf(progMachine.Run(avm.Decode(program), &b), sb)},
	} {
		if !reflect.DeepEqual(got.outcome, want) {
			t.Fatalf("%s differs from the reference Execute\nbudget %d, args %v\n%s\n%s: %+v\nreference: %+v",
				got.path, ctx.Budget, ctx.Args, avm.Disassemble(program), got.path, got.outcome, want)
		}
	}
	return want
}

// rel encodes a branching opcode with a raw displacement.
func rel(op avm.Op, off int16) []byte {
	return binary.BigEndian.AppendUint16([]byte{byte(op)}, uint16(off))
}

func pushInt(v uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte{byte(avm.OpPushInt)}, v)
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func ops(o ...avm.Op) []byte {
	out := make([]byte, len(o))
	for i, op := range o {
		out[i] = byte(op)
	}
	return out
}

// TestRunExactnessRules pins, one case each, the places where validating a
// block at its entry could change what a call reports, and checks each against
// the byte-stream loop and against the expected result.
func TestRunExactnessRules(t *testing.T) {
	many := func(part []byte, n int) []byte { return []byte(strings.Repeat(string(part), n)) }
	cases := []struct {
		name    string
		program []byte
		budget  uint64
		keys    int
		args    []uint64
		outcome avm.Outcome
		opsUsed uint64
		errIs   error
		errText string
	}{
		{
			name:    "the budget runs out inside a block: ops used stop at the last op that fitted",
			program: concat(many(concat(pushInt(1), ops(avm.OpPop)), 10), pushInt(1), ops(avm.OpReturn)), budget: 7,
			outcome: avm.BudgetExceeded, opsUsed: 7, errText: "avm: budget of 7 ops exceeded",
		},
		{
			name:    "an expensive op that does not fit leaves the cheaper ops before it counted",
			program: concat(pushInt(1), ops(avm.OpAppGlobalGet, avm.OpReturn)), budget: 20,
			outcome: avm.BudgetExceeded, opsUsed: 1, errText: "avm: budget of 20 ops exceeded",
		},
		{
			name:    "an error earlier in the block beats the budget running out later in it",
			program: concat(ops(avm.OpPop), many(concat(pushInt(1), ops(avm.OpPop)), 10), pushInt(1), ops(avm.OpReturn)), budget: 7,
			outcome: avm.Errored, opsUsed: 1, errIs: avm.ErrStackUnderflow,
		},
		{
			name:    "division by zero inside a block does not count the ops after it",
			program: concat(pushInt(1), pushInt(0), ops(avm.OpTxnArg, avm.OpDiv), pushInt(1), ops(avm.OpPlus, avm.OpReturn)),
			outcome: avm.Errored, opsUsed: 4, errIs: avm.ErrDivByZero,
		},
		{
			name:    "modulo by zero likewise",
			program: concat(pushInt(1), pushInt(0), ops(avm.OpMod), pushInt(1), ops(avm.OpReturn)),
			outcome: avm.Errored, opsUsed: 3, errIs: avm.ErrDivByZero,
		},
		{
			name:    "a full store fails app_global_put at the ops used so far",
			program: concat(pushInt(9), pushInt(1), ops(avm.OpAppGlobalPut), pushInt(1), ops(avm.OpReturn)), keys: 2,
			outcome: avm.Errored, opsUsed: 27, errIs: avm.ErrStateFull,
		},
		{
			name:    "a rejected call rolls back and reports no error",
			program: concat(pushInt(9), pushInt(1), ops(avm.OpAppGlobalPut), pushInt(0), ops(avm.OpReturn)),
			outcome: avm.Rejected, opsUsed: 29,
		},
		{
			name:    "the stack overflows at depth 1000",
			program: concat(many(pushInt(1), 1001), ops(avm.OpReturn)), budget: 1 << 20,
			outcome: avm.Errored, opsUsed: 1001, errIs: avm.ErrStackOverflow,
		},
		{
			name:    "depth 1000 itself is fine",
			program: concat(many(pushInt(1), 1000), ops(avm.OpReturn)), budget: 1 << 20,
			outcome: avm.Approved, opsUsed: 1001,
		},
		{
			name: "a branch into the middle of a pushint decodes from there",
			// 0: b -> 4. 3: a pushint whose first immediate byte is pushint
			// itself, so that from 4 the stream reads pushint 7 (its last
			// byte the 7 at 12) and the return at 13.
			program: concat(rel(avm.OpBranch, 1), []byte{byte(avm.OpPushInt), byte(avm.OpPushInt), 0, 0, 0, 0, 0, 0, 0}, []byte{7, byte(avm.OpReturn)}),
			outcome: avm.Approved, opsUsed: 3,
		},
		{
			name:    "a branch to the end of the program ends without return",
			program: concat(pushInt(1), rel(avm.OpBranch, 0)),
			outcome: avm.Errored, opsUsed: 2, errIs: avm.ErrNoReturn,
		},
		{
			name:    "a branch out of bounds is metered, then reported",
			program: concat(pushInt(1), rel(avm.OpBranch, 500), pushInt(1), ops(avm.OpReturn)),
			outcome: avm.Errored, opsUsed: 2, errIs: avm.ErrBadBranch,
		},
		{
			name:    "bz checks the stack before its target",
			program: concat(rel(avm.OpBZ, -500), pushInt(1), ops(avm.OpReturn)),
			outcome: avm.Errored, opsUsed: 1, errIs: avm.ErrStackUnderflow,
		},
		{
			name:    "callsub checks the call depth before its target",
			program: concat(rel(avm.OpCallSub, -3)), budget: 100,
			outcome: avm.Errored, opsUsed: 9, errIs: avm.ErrCallDepth,
		},
		{
			name:    "retsub without callsub",
			program: concat(pushInt(1), ops(avm.OpRetSub)),
			outcome: avm.Errored, opsUsed: 2, errIs: avm.ErrRetNoCall,
		},
		{
			name:    "a subroutine returns to the instruction after its callsub",
			program: concat(rel(avm.OpCallSub, 2), ops(avm.OpReturn, avm.OpErr), pushInt(5), ops(avm.OpRetSub)),
			outcome: avm.Approved, opsUsed: 4,
		},
		{
			name: "a truncated pushint", program: concat(pushInt(1), []byte{byte(avm.OpPushInt), 1, 2}),
			outcome: avm.Errored, opsUsed: 2, errIs: avm.ErrTruncated,
		},
		{
			name: "a truncated load", program: concat(pushInt(1), ops(avm.OpLoad)),
			outcome: avm.Errored, opsUsed: 2, errIs: avm.ErrTruncated,
		},
		{
			name: "a truncated branch", program: concat(pushInt(1), []byte{byte(avm.OpBranch), 0}),
			outcome: avm.Errored, opsUsed: 2, errIs: avm.ErrBadBranch,
		},
		{
			name: "an unknown opcode is metered and names itself and its pc", program: concat(pushInt(1), []byte{0xEE}),
			outcome: avm.Errored, opsUsed: 2, errIs: avm.ErrBadOpcode, errText: "avm: invalid opcode: 238 at pc 9",
		},
		{
			name:    "code after an unknown opcode is still reachable by a branch",
			program: concat(rel(avm.OpBranch, 1), []byte{0xEE}, pushInt(1), ops(avm.OpReturn)),
			outcome: avm.Approved, opsUsed: 3,
		},
		{
			name: "running off the end", program: pushInt(1),
			outcome: avm.Errored, opsUsed: 1, errIs: avm.ErrNoReturn,
		},
		{
			name: "an empty program", program: nil,
			outcome: avm.Errored, errIs: avm.ErrNoReturn,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := sameOutcome(t, tc.program, avm.Context{Budget: tc.budget, Args: tc.args}, twoKeys, tc.keys)
			if got.Outcome != tc.outcome || got.OpsUsed != tc.opsUsed {
				t.Fatalf("outcome %v ops %d, want %v %d (err %q)", got.Outcome, got.OpsUsed, tc.outcome, tc.opsUsed, got.Err)
			}
			if tc.errIs != nil && !strings.Contains(got.Err, tc.errIs.Error()) {
				t.Fatalf("error %q, want %q", got.Err, tc.errIs)
			}
			if tc.errText != "" && got.Err != tc.errText {
				t.Fatalf("error %q, want %q", got.Err, tc.errText)
			}
			if tc.errIs == nil && tc.errText == "" && got.Err != "" {
				t.Fatalf("unexpected error %q", got.Err)
			}
			if tc.outcome != avm.Approved && !reflect.DeepEqual(got.Final, twoKeys) {
				t.Fatalf("a call that did not approve left writes behind: %v", got.Final)
			}
		})
	}
}

// TestBudgetErrorBuiltOncePerBudget pins that aborting calls share one error
// value per budget, and that its text is what it always was.
func TestBudgetErrorBuiltOncePerBudget(t *testing.T) {
	m := avm.NewMachine()
	loop := concat(pushInt(1), ops(avm.OpPop), rel(avm.OpBranch, -13))
	p := avm.Decode(loop)
	ctx := &avm.Context{State: avm.NewMapKV(0)}
	run := func(budget uint64) error {
		ctx.Budget = budget
		return m.Run(p, ctx).Err
	}
	first, second, other := run(0), run(0), run(50)
	if first == nil || first != second {
		t.Fatalf("two aborts at one budget gave %v and %v", first, second)
	}
	if first.Error() != "avm: budget of 20000 ops exceeded" || other.Error() != "avm: budget of 50 ops exceeded" {
		t.Fatalf("texts %q and %q", first, other)
	}
	if allocs := testing.AllocsPerRun(100, func() { run(0) }); allocs != 0 {
		t.Fatalf("an aborting call allocates %.0f times", allocs)
	}
}

// randomProgram draws a program that is mostly well formed, with short
// branches that often land inside the program and sometimes inside an
// instruction, and the odd wild byte.
func randomProgram(rng *rand.Rand) []byte {
	n := 1 + rng.Intn(50)
	var code []byte
	for i := 0; i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 30:
			v := uint64(rng.Intn(4))
			if rng.Intn(4) == 0 {
				v = rng.Uint64()
			}
			code = append(code, pushInt(v)...)
		case r < 45:
			op := avm.OpBranch + avm.Op(rng.Intn(4)) // b, bz, bnz, callsub
			code = append(code, rel(op, int16(rng.Intn(60)-20))...)
		case r < 55:
			code = append(code, byte(avm.OpLoad+avm.Op(rng.Intn(2))), byte(rng.Intn(3)))
		case r < 58:
			code = append(code, byte(avm.OpLog), byte(rng.Intn(3)))
		case r < 60:
			code = append(code, byte(rng.Intn(256)))
		default:
			code = append(code, byte(rng.Intn(int(avm.OpReturn)+1)))
		}
	}
	if rng.Intn(10) == 0 {
		code = code[:len(code)-rng.Intn(min(len(code), 9))]
	}
	return code
}

func randomBudget(rng *rand.Rand) uint64 {
	if rng.Intn(3) == 0 {
		return 1 + uint64(rng.Intn(40))
	}
	return 1 + uint64(rng.Intn(3000))
}

// TestRunMatchesExecuteOnRandomPrograms is the differential oracle run as a
// plain test: random programs, budgets and arguments, every observable
// compared.
func TestRunMatchesExecuteOnRandomPrograms(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	rng := rand.New(rand.NewSource(1))
	outcomes := map[avm.Outcome]int{}
	for i := 0; i < n; i++ {
		ctx := avm.Context{Budget: randomBudget(rng), Args: []uint64{uint64(rng.Intn(3)), rng.Uint64()}, Sender: 7, Round: 9, Time: 10}
		outcomes[sameOutcome(t, randomProgram(rng), ctx, twoKeys, 3+rng.Intn(3)).Outcome]++
	}
	t.Logf("outcomes over %d programs: %v", n, outcomes)
	for _, o := range []avm.Outcome{avm.Approved, avm.Rejected, avm.BudgetExceeded, avm.Errored} {
		if outcomes[o] == 0 {
			t.Errorf("no random program ended %v; the generator no longer covers it", o)
		}
	}
}

// avmDApps are the contracts the AVM backend can express.
func avmDApps(t testing.TB) []*dapps.DApp {
	var out []*dapps.DApp
	for _, name := range append(dapps.Names(), "nft", "dex") {
		d, err := dapps.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.CompileAVM(); err == nil {
			out = append(out, d)
		}
	}
	if len(out) < 4 {
		t.Fatalf("only %d DApps compile for the AVM", len(out))
	}
	return out
}

// TestRunMatchesExecuteOnDApps calls every public function of every DApp
// after its init, at a budget that lets it finish, at the default budget and
// at several that cut it short.
func TestRunMatchesExecuteOnDApps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range avmDApps(t) {
		c, _ := d.CompileAVM()
		state := map[uint64]uint64{}
		for _, fn := range append([]string{d.InitFunc}, d.Functions...) {
			var args []uint64
			if fn != d.InitFunc {
				args = d.ArgGen(rng, fn)
			}
			appArgs, err := c.AppArgs(fn, args...)
			if err != nil {
				t.Fatal(err)
			}
			full := sameOutcome(t, c.Program, avm.Context{Budget: 1 << 40, Args: appArgs, Sender: 5}, state, 0)
			if full.Outcome != avm.Approved {
				t.Fatalf("%s.%s: %v (%s)", d.Name, fn, full.Outcome, full.Err)
			}
			for _, budget := range []uint64{0, 1, full.OpsUsed / 3, full.OpsUsed - 1, full.OpsUsed} {
				sameOutcome(t, c.Program, avm.Context{Budget: budget, Args: appArgs, Sender: 5}, state, 0)
			}
			state = full.Final // the next function runs on what this one left
		}
	}
}

// TestProgramSharedByGoroutines runs one Program from four machines at once,
// as the cells of a parallel sweep do (dapps caches each compiled DApp
// process-wide); under -race it shows that Run only reads it.
func TestProgramSharedByGoroutines(t *testing.T) {
	d, err := dapps.Get("uber")
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.CompileAVM()
	if err != nil {
		t.Fatal(err)
	}
	args, err := c.AppArgs("checkDistance", 1234, 5678)
	if err != nil {
		t.Fatal(err)
	}
	used := make([]uint64, 4)
	var wg sync.WaitGroup
	for i := range used {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := avm.NewMachine()
			for n := 0; n < 5; n++ {
				used[i] = m.Run(c.Decoded, &avm.Context{Args: args, State: avm.NewMapKV(0), Budget: 1 << 30}).OpsUsed
			}
		}()
	}
	wg.Wait()
	for _, u := range used {
		if u == 0 || u != used[0] {
			t.Fatalf("ops used differ between goroutines: %v", used)
		}
	}
}

// FuzzMachineMatchesBytecode feeds arbitrary bytes, budgets and arguments to
// both paths: Run never panics and never differs from Execute.
func FuzzMachineMatchesBytecode(f *testing.F) {
	for _, d := range avmDApps(f) {
		c, _ := d.CompileAVM()
		appArgs, err := c.AppArgs(d.InitFunc)
		if err != nil {
			f.Fatal(err)
		}
		raw := binary.BigEndian.AppendUint64(nil, appArgs[0])
		f.Add(c.Program, uint64(20_000), raw)
		f.Add(c.Program, uint64(30), raw)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 32; i++ {
		f.Add(randomProgram(rng), randomBudget(rng), []byte{0, 0, 0, 0, 0, 0, 0, byte(i)})
	}
	f.Fuzz(func(t *testing.T, program []byte, budget uint64, raw []byte) {
		var args []uint64
		for ; len(raw) >= 8; raw = raw[8:] {
			args = append(args, binary.BigEndian.Uint64(raw))
		}
		// The budget bounds the run: every op costs at least one.
		ctx := avm.Context{Budget: 1 + budget%100_000, Args: args, Sender: 7, Round: 9, Time: 10}
		sameOutcome(t, program, ctx, twoKeys, 4)
	})
}

// BenchmarkUberAbort times one checkDistance call into the budget abort, the
// unit of the uber-exec benchmark workload on Algorand, on the pre-Machine
// Execute, on the byte-stream loop and on the decoded program.
func BenchmarkUberAbort(b *testing.B) {
	d, err := dapps.Get("uber")
	if err != nil {
		b.Fatal(err)
	}
	c, err := d.CompileAVM()
	if err != nil {
		b.Fatal(err)
	}
	kv := avm.NewMapKV(0)
	m := avm.NewMachine()
	initArgs, _ := c.AppArgs(d.InitFunc)
	m.Execute(c.Program, &avm.Context{Args: initArgs, State: kv, Budget: 1 << 40})
	args, _ := c.AppArgs("checkDistance", 1234, 5678)
	ctx := &avm.Context{Args: args, State: kv}
	p := avm.Decode(c.Program)
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			avm.ReferenceExecute(c.Program, ctx)
		}
	})
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Execute(c.Program, ctx)
		}
	})
	b.Run("program", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Run(p, ctx)
		}
	})
}
