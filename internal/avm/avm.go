// Package avm implements a TEAL-style Algorand Virtual Machine: a stack
// interpreter with its own instruction set, distinct from the EVM-flavored
// diablo/internal/vm in all the ways the paper's contribution 3 calls out:
//
//   - metering counts *opcodes* against a hard budget, not gas — paying a
//     higher fee cannot buy more computation ("budget exceeded");
//   - persistent state is a bounded key-value store (app globals), not
//     storage slots behind a Merkle trie;
//   - locals live in 256 scratch slots (store/load), and internal calls
//     use real callsub/retsub subroutines (TEAL v4);
//   - control flow uses relative branches (b/bz/bnz) with no JUMPDEST
//     validation, and a program approves by leaving a nonzero value on
//     the stack.
//
// The MiniSol compiler has a second backend targeting this ISA
// (minisol.GenerateAVM), mirroring how the paper's authors wrote every
// DApp twice more in PyTeal and Move.
package avm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Op is an AVM opcode.
type Op byte

// The instruction set, loosely following TEAL mnemonics.
const (
	OpErr     Op = iota // abort immediately
	OpPushInt           // followed by 8-byte immediate
	OpPop
	OpDup
	OpSwap
	OpSelect // c b a select: pushes b if a != 0 else c

	OpPlus
	OpMinus
	OpMul
	OpDiv // division by zero aborts the program (TEAL semantics)
	OpMod
	OpLt
	OpGt
	OpLe
	OpGe
	OpEq
	OpNeq
	OpAnd // logical: a && b on 0/nonzero
	OpOr
	OpNot

	OpBranch  // b: unconditional relative branch (2-byte signed offset)
	OpBZ      // bz: branch if zero
	OpBNZ     // bnz: branch if nonzero
	OpCallSub // callsub: push return address, branch
	OpRetSub  // retsub: pop return address, branch back

	OpLoad  // load  <slot byte>: push scratch[slot]
	OpStore // store <slot byte>: scratch[slot] = pop

	OpAppGlobalGet // key on stack -> value
	OpAppGlobalPut // key value on stack -> state

	OpTxnSender   // push low 8 bytes of the sender address
	OpTxnNumArgs  // push number of application arguments
	OpTxnArg      // arg index on stack -> value (0 = selector)
	OpGlobalRound // push the round (block) number
	OpGlobalTime  // push the block timestamp (seconds)

	OpLog    // <nargs byte>: pop event id and nargs values
	OpReturn // pop; nonzero approves, zero rejects
)

var opNames = map[Op]string{
	OpErr: "err", OpPushInt: "pushint", OpPop: "pop", OpDup: "dup",
	OpSwap: "swap", OpSelect: "select",
	OpPlus: "+", OpMinus: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpLt: "<", OpGt: ">", OpLe: "<=", OpGe: ">=", OpEq: "==", OpNeq: "!=",
	OpAnd: "&&", OpOr: "||", OpNot: "!",
	OpBranch: "b", OpBZ: "bz", OpBNZ: "bnz",
	OpCallSub: "callsub", OpRetSub: "retsub",
	OpLoad: "load", OpStore: "store",
	OpAppGlobalGet: "app_global_get", OpAppGlobalPut: "app_global_put",
	OpTxnSender: "txn Sender", OpTxnNumArgs: "txn NumAppArgs", OpTxnArg: "txnas ApplicationArgs",
	OpGlobalRound: "global Round", OpGlobalTime: "global LatestTimestamp",
	OpLog: "log", OpReturn: "return",
}

// String returns the mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", byte(o))
}

// Budget-relevant per-op costs (most TEAL ops cost 1).
func opCost(o Op) uint64 {
	switch o {
	case OpAppGlobalGet, OpAppGlobalPut:
		return 25 // state access is the expensive operation class
	case OpLog:
		return 5
	default:
		return 1
	}
}

// KVStore is the application's bounded global state.
type KVStore interface {
	Get(key uint64) (uint64, bool)
	// Put may reject new keys once the app's state is full.
	Put(key, value uint64) error
	Delete(key uint64)
	Len() int
}

// MapKV is the default store with an optional entry bound.
type MapKV struct {
	M        map[uint64]uint64
	MaxElems int
}

// NewMapKV returns an empty store bounded to maxElems entries (0 = no
// bound).
func NewMapKV(maxElems int) *MapKV {
	return &MapKV{M: make(map[uint64]uint64), MaxElems: maxElems}
}

// ErrStateFull reports the AVM's bounded key-value state overflowing.
var ErrStateFull = errors.New("avm: app global state is full")

// Get implements KVStore.
func (m *MapKV) Get(key uint64) (uint64, bool) {
	v, ok := m.M[key]
	return v, ok
}

// Put implements KVStore.
func (m *MapKV) Put(key, value uint64) error {
	if _, exists := m.M[key]; !exists && m.MaxElems > 0 && len(m.M) >= m.MaxElems {
		return ErrStateFull
	}
	m.M[key] = value
	return nil
}

// Delete implements KVStore.
func (m *MapKV) Delete(key uint64) { delete(m.M, key) }

// Len implements KVStore.
func (m *MapKV) Len() int { return len(m.M) }

// Context is the per-call environment.
type Context struct {
	Sender uint64   // low 8 bytes of the sender address
	Args   []uint64 // application arguments; Args[0] is the method selector
	Round  uint64
	Time   uint64
	State  KVStore
	// Budget is the hard opcode budget; 0 uses DefaultBudget.
	Budget uint64
}

// DefaultBudget is the per-call opcode budget (TEAL's pooled budget scaled
// to this ISA's accounting).
const DefaultBudget = 20000

// Event is a log entry.
type Event struct {
	ID   uint64
	Args []uint64
}

// Outcome classifies a run.
type Outcome int

const (
	// Approved: the program returned nonzero.
	Approved Outcome = iota
	// Rejected: the program returned zero (logic rejection).
	Rejected
	// BudgetExceeded: the opcode budget ran out ("budget exceeded").
	BudgetExceeded
	// Errored: err opcode, stack fault, bad branch, division by zero or
	// state overflow.
	Errored
)

func (o Outcome) String() string {
	switch o {
	case Approved:
		return "approved"
	case Rejected:
		return "rejected"
	case BudgetExceeded:
		return "budget exceeded"
	default:
		return "errored"
	}
}

// Result is the outcome of executing a program.
type Result struct {
	Outcome Outcome
	OpsUsed uint64
	Events  []Event
	Err     error
}

const (
	stackLimit   = 1000 // TEAL's stack depth limit
	scratchSlots = 256
	callDepth    = 8
)

// Execution errors.
var (
	ErrStackUnderflow = errors.New("avm: stack underflow")
	ErrStackOverflow  = errors.New("avm: stack overflow")
	ErrBadBranch      = errors.New("avm: branch out of bounds")
	ErrBadOpcode      = errors.New("avm: invalid opcode")
	ErrTruncated      = errors.New("avm: truncated program")
	ErrDivByZero      = errors.New("avm: division by zero")
	ErrCallDepth      = errors.New("avm: call depth exceeded")
	ErrRetNoCall      = errors.New("avm: retsub without callsub")
	ErrErrOp          = errors.New("avm: err opcode executed")
	ErrNoReturn       = errors.New("avm: program ended without return")
)

type journalEntry struct {
	key     uint64
	prev    uint64
	existed bool
}

// Machine executes AVM programs. One Machine may be reused across calls, and
// then allocates nothing per call beyond the events a program logs; it is not
// safe for concurrent use.
type Machine struct {
	words      [stackLimit]uint64
	stack      []uint64 // the checked path's view of words: its len is the depth
	scratch    [scratchSlots]uint64
	scratchTop int // scratch[scratchTop:] is still zero
	calls      []int
	journal    []journalEntry
	events     []Event // logged by the call in progress; its Result takes them
	budget     uint64  // of the call in progress

	// exceeded is the budget-exceeded error for a budget of exceededAt ops;
	// every aborting call of one application reports the same one.
	exceeded   error
	exceededAt uint64
}

// NewMachine returns a fresh machine.
func NewMachine() *Machine {
	return &Machine{calls: make([]int, 0, callDepth)}
}

// Execute runs a program once on a fresh machine (a 10 KB allocation): the
// entry point of the package's own tests and of the minisol and ablation
// tests, which run each program a handful of times. The executor holds a
// Machine per lane instead.
func Execute(program []byte, ctx *Context) Result {
	return NewMachine().Execute(program, ctx)
}

// reset readies the machine for a new call.
func (m *Machine) reset(ctx *Context) {
	m.stack = m.words[:0]
	m.calls = m.calls[:0]
	m.journal = m.journal[:0]
	m.events = nil
	clear(m.scratch[:m.scratchTop])
	m.scratchTop = 0
	m.budget = ctx.Budget
	if m.budget == 0 {
		m.budget = DefaultBudget
	}
}

// Execute runs a program. State mutations are journalled and rolled back
// unless the program approves. It decodes the byte stream as it goes; a
// caller that runs the same program many times decodes it once with Decode
// and calls Run, which yields the same Result.
func (m *Machine) Execute(program []byte, ctx *Context) Result {
	m.reset(ctx)
	return m.run(program, ctx, 0, 0)
}

// rollback restores the state the call found, newest write first.
func (m *Machine) rollback(state KVStore) {
	for i := len(m.journal) - 1; i >= 0; i-- {
		e := m.journal[i]
		if e.existed {
			_ = state.Put(e.key, e.prev) // restoring a value the store held before
		} else {
			state.Delete(e.key)
		}
	}
	m.journal = m.journal[:0]
}

// fail ends a call that does not approve.
func (m *Machine) fail(ctx *Context, o Outcome, ops uint64, err error) Result {
	m.rollback(ctx.State)
	return Result{Outcome: o, OpsUsed: ops, Err: err}
}

// budgetExceeded is the error of a call that ran out of budget.
func (m *Machine) budgetExceeded(budget uint64) error {
	if m.exceeded == nil || m.exceededAt != budget {
		m.exceeded, m.exceededAt = fmt.Errorf("avm: budget of %d ops exceeded", budget), budget
	}
	return m.exceeded
}

// put is app_global_put: the write is journalled once the store accepts it.
func (m *Machine) put(state KVStore, key, value uint64) error {
	prev, existed := state.Get(key)
	if err := state.Put(key, value); err != nil {
		return err
	}
	m.journal = append(m.journal, journalEntry{key: key, prev: prev, existed: existed})
	return nil
}

// log records the event a log instruction emits; args is copied.
func (m *Machine) log(id uint64, args []uint64) {
	m.events = append(m.events, Event{ID: id, Args: append(make([]uint64, 0, len(args)), args...)})
}

// branchTarget reads the 2-byte relative displacement at pc and returns the
// absolute target, which may be len(program): a branch to the end.
func branchTarget(program []byte, pc int) (int, bool) {
	if pc+2 > len(program) {
		return 0, false
	}
	dst := pc + 2 + int(int16(binary.BigEndian.Uint16(program[pc:])))
	return dst, dst >= 0 && dst <= len(program)
}

// run is the checked byte-stream loop: every opcode meters itself against the
// budget and checks its own stack bounds. It starts from any (pc, ops used,
// stack, call stack), which is how Run hands a call over to it part-way (see
// program.go).
func (m *Machine) run(program []byte, ctx *Context, pc int, ops uint64) Result {
	stack, budget := m.stack, m.budget
	for pc < len(program) {
		op := Op(program[pc])
		pc++
		cost := opCost(op)
		if ops+cost > budget {
			return m.fail(ctx, BudgetExceeded, ops, m.budgetExceeded(budget))
		}
		ops += cost

		switch op {
		case OpErr:
			return m.fail(ctx, Errored, ops, ErrErrOp)

		case OpPushInt:
			if pc+8 > len(program) {
				return m.fail(ctx, Errored, ops, ErrTruncated)
			}
			if len(stack) >= stackLimit {
				return m.fail(ctx, Errored, ops, ErrStackOverflow)
			}
			stack = append(stack, binary.BigEndian.Uint64(program[pc:]))
			pc += 8

		case OpPop:
			if len(stack) < 1 {
				return m.fail(ctx, Errored, ops, ErrStackUnderflow)
			}
			stack = stack[:len(stack)-1]

		case OpDup:
			if len(stack) < 1 {
				return m.fail(ctx, Errored, ops, ErrStackUnderflow)
			}
			if len(stack) >= stackLimit {
				return m.fail(ctx, Errored, ops, ErrStackOverflow)
			}
			stack = append(stack, stack[len(stack)-1])

		case OpSwap:
			if len(stack) < 2 {
				return m.fail(ctx, Errored, ops, ErrStackUnderflow)
			}
			stack[len(stack)-1], stack[len(stack)-2] = stack[len(stack)-2], stack[len(stack)-1]

		case OpSelect:
			if len(stack) < 3 {
				return m.fail(ctx, Errored, ops, ErrStackUnderflow)
			}
			a, b, c := stack[len(stack)-1], stack[len(stack)-2], stack[len(stack)-3]
			stack = stack[:len(stack)-2]
			if a != 0 {
				c = b
			}
			stack[len(stack)-1] = c

		case OpPlus, OpMinus, OpMul, OpDiv, OpMod, OpLt, OpGt, OpLe, OpGe, OpEq, OpNeq, OpAnd, OpOr:
			if len(stack) < 2 {
				return m.fail(ctx, Errored, ops, ErrStackUnderflow)
			}
			a, b := stack[len(stack)-2], stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			var r uint64
			switch op {
			case OpPlus:
				r = a + b
			case OpMinus:
				r = a - b
			case OpMul:
				r = a * b
			case OpDiv:
				if b == 0 {
					return m.fail(ctx, Errored, ops, ErrDivByZero)
				}
				r = a / b
			case OpMod:
				if b == 0 {
					return m.fail(ctx, Errored, ops, ErrDivByZero)
				}
				r = a % b
			case OpLt:
				r = b2u(a < b)
			case OpGt:
				r = b2u(a > b)
			case OpLe:
				r = b2u(a <= b)
			case OpGe:
				r = b2u(a >= b)
			case OpEq:
				r = b2u(a == b)
			case OpNeq:
				r = b2u(a != b)
			case OpAnd:
				r = b2u(a != 0 && b != 0)
			case OpOr:
				r = b2u(a != 0 || b != 0)
			}
			stack[len(stack)-1] = r

		case OpNot:
			if len(stack) < 1 {
				return m.fail(ctx, Errored, ops, ErrStackUnderflow)
			}
			stack[len(stack)-1] = b2u(stack[len(stack)-1] == 0)

		case OpBranch:
			dst, ok := branchTarget(program, pc)
			if !ok {
				return m.fail(ctx, Errored, ops, ErrBadBranch)
			}
			pc = dst

		case OpBZ, OpBNZ:
			if len(stack) < 1 {
				return m.fail(ctx, Errored, ops, ErrStackUnderflow)
			}
			cond := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			dst, ok := branchTarget(program, pc)
			if !ok {
				return m.fail(ctx, Errored, ops, ErrBadBranch)
			}
			if (op == OpBZ) == (cond == 0) {
				pc = dst
			} else {
				pc += 2
			}

		case OpCallSub:
			if len(m.calls) >= callDepth {
				return m.fail(ctx, Errored, ops, ErrCallDepth)
			}
			dst, ok := branchTarget(program, pc)
			if !ok {
				return m.fail(ctx, Errored, ops, ErrBadBranch)
			}
			m.calls = append(m.calls, pc+2)
			pc = dst

		case OpRetSub:
			if len(m.calls) == 0 {
				return m.fail(ctx, Errored, ops, ErrRetNoCall)
			}
			pc = m.calls[len(m.calls)-1]
			m.calls = m.calls[:len(m.calls)-1]

		case OpLoad, OpStore:
			if pc >= len(program) {
				return m.fail(ctx, Errored, ops, ErrTruncated)
			}
			slot := program[pc]
			pc++
			if op == OpLoad {
				if len(stack) >= stackLimit {
					return m.fail(ctx, Errored, ops, ErrStackOverflow)
				}
				stack = append(stack, m.scratch[slot])
			} else {
				if len(stack) < 1 {
					return m.fail(ctx, Errored, ops, ErrStackUnderflow)
				}
				m.scratch[slot] = stack[len(stack)-1]
				m.scratchTop = max(m.scratchTop, int(slot)+1)
				stack = stack[:len(stack)-1]
			}

		case OpAppGlobalGet:
			if len(stack) < 1 {
				return m.fail(ctx, Errored, ops, ErrStackUnderflow)
			}
			stack[len(stack)-1], _ = ctx.State.Get(stack[len(stack)-1])

		case OpAppGlobalPut:
			if len(stack) < 2 {
				return m.fail(ctx, Errored, ops, ErrStackUnderflow)
			}
			key, value := stack[len(stack)-2], stack[len(stack)-1]
			stack = stack[:len(stack)-2]
			if err := m.put(ctx.State, key, value); err != nil {
				return m.fail(ctx, Errored, ops, err)
			}

		case OpTxnSender, OpTxnNumArgs, OpGlobalRound, OpGlobalTime:
			if len(stack) >= stackLimit {
				return m.fail(ctx, Errored, ops, ErrStackOverflow)
			}
			var v uint64
			switch op {
			case OpTxnSender:
				v = ctx.Sender
			case OpTxnNumArgs:
				v = uint64(len(ctx.Args))
			case OpGlobalRound:
				v = ctx.Round
			case OpGlobalTime:
				v = ctx.Time
			}
			stack = append(stack, v)

		case OpTxnArg:
			if len(stack) < 1 {
				return m.fail(ctx, Errored, ops, ErrStackUnderflow)
			}
			var v uint64
			if i := stack[len(stack)-1]; i < uint64(len(ctx.Args)) {
				v = ctx.Args[i]
			}
			stack[len(stack)-1] = v

		case OpLog:
			if pc >= len(program) {
				return m.fail(ctx, Errored, ops, ErrTruncated)
			}
			nargs := int(program[pc])
			pc++
			if len(stack) < nargs+1 {
				return m.fail(ctx, Errored, ops, ErrStackUnderflow)
			}
			top := len(stack) - 1
			m.log(stack[top], stack[top-nargs:top])
			stack = stack[:top-nargs]

		case OpReturn:
			if len(stack) < 1 {
				return m.fail(ctx, Errored, ops, ErrStackUnderflow)
			}
			if stack[len(stack)-1] == 0 {
				return m.fail(ctx, Rejected, ops, nil)
			}
			return Result{Outcome: Approved, OpsUsed: ops, Events: m.events}

		default:
			return m.fail(ctx, Errored, ops, fmt.Errorf("%w: %d at pc %d", ErrBadOpcode, byte(op), pc-1))
		}
	}
	return m.fail(ctx, Errored, ops, ErrNoReturn)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
