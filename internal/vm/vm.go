// Package vm implements the gas-metered stack virtual machine that executes
// DIABLO's DApp contracts. It is modeled on the Ethereum Virtual Machine:
// bytecode with 64-bit words, contract storage behind an interface, events,
// revert semantics and an Ethereum-flavoured gas schedule. Per-chain
// execution limits (geth's block-gas-only policy vs the hard per-transaction
// budgets of MoveVM, the Algorand VM and Solana's eBPF) are layered on top
// by package vmprofiles.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"diablo/internal/types"
)

// Op is a bytecode operation.
type Op byte

// The instruction set. PUSH is followed by an 8-byte big-endian immediate.
const (
	STOP Op = iota
	PUSH    // push immediate word
	POP
	DUP  // duplicate stack[top-imm8]; followed by one byte
	SWAP // swap top with stack[top-imm8]; followed by one byte

	ADD
	SUB
	MUL
	DIV // x/0 = 0, like the EVM
	MOD // x%0 = 0
	LT
	GT
	EQ
	ISZERO
	AND
	OR
	XOR
	NOT

	JUMP     // pop dest
	JUMPI    // pop dest, cond; jump if cond != 0
	JUMPDEST // valid jump target marker

	MLOAD  // pop idx; push memory[idx]
	MSTORE // pop idx, value; memory[idx] = value

	SLOAD  // pop key; push storage[key]
	SSTORE // pop key, value; storage[key] = value
	MAPKEY // pop slot, key; push combined storage key

	CALLER       // push sender (low 8 bytes of address)
	CALLVALUE    // push tx value
	CALLDATA     // pop idx; push word idx of calldata
	CALLDATASIZE // push number of calldata words
	TIMESTAMP    // push block timestamp (seconds)
	NUMBER       // push block number
	GASREMAINING // push remaining gas

	LOG    // pop event-id and n args; followed by one byte n
	RETURN // pop value; halt returning it
	REVERT // halt, revert state changes
)

var opNames = map[Op]string{
	STOP: "STOP", PUSH: "PUSH", POP: "POP", DUP: "DUP", SWAP: "SWAP",
	ADD: "ADD", SUB: "SUB", MUL: "MUL", DIV: "DIV", MOD: "MOD",
	LT: "LT", GT: "GT", EQ: "EQ", ISZERO: "ISZERO",
	AND: "AND", OR: "OR", XOR: "XOR", NOT: "NOT",
	JUMP: "JUMP", JUMPI: "JUMPI", JUMPDEST: "JUMPDEST",
	MLOAD: "MLOAD", MSTORE: "MSTORE",
	SLOAD: "SLOAD", SSTORE: "SSTORE", MAPKEY: "MAPKEY",
	CALLER: "CALLER", CALLVALUE: "CALLVALUE", CALLDATA: "CALLDATA",
	CALLDATASIZE: "CALLDATASIZE", TIMESTAMP: "TIMESTAMP", NUMBER: "NUMBER",
	GASREMAINING: "GASREMAINING",
	LOG:          "LOG", RETURN: "RETURN", REVERT: "REVERT",
}

// String returns the mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", byte(o))
}

// Gas schedule, scaled like Ethereum's so that published per-block gas
// limits (e.g. Avalanche's 8M) translate into realistic per-block
// transaction counts.
const (
	// GasTxBase is charged for any transaction before execution (21000 in
	// Ethereum).
	GasTxBase = 21000
	// GasTxDataByte is charged per calldata byte.
	GasTxDataByte = 16

	gasBase         = 3   // cheap ops: arithmetic, stack, memory
	gasJump         = 8   // control flow
	gasSLoad        = 800 // cold storage read (Berlin-era pricing)
	gasSStoreNew    = 20000
	gasSStoreUpdate = 5000
	gasLogBase      = 375
	gasLogArg       = 256
	gasMapKey       = 30
)

// Storage abstracts the contract's persistent key/value state so different
// chains can plug in trie-backed or flat state, and so the AVM profile can
// enforce its key-count limits.
type Storage interface {
	Load(key uint64) uint64
	// Store writes a slot. It may return an error to model state-model
	// limits (e.g. the AVM's bounded key-value store); the error aborts
	// execution with StatusBudgetExceeded semantics.
	Store(key, value uint64) error
	// Exists reports whether the slot was ever written (for gas pricing).
	Exists(key uint64) bool
	// Delete removes a slot entirely (used when reverting a write that
	// created the slot).
	Delete(key uint64)
}

// MapStorage is the default in-memory Storage.
type MapStorage map[uint64]uint64

// Load implements Storage.
func (m MapStorage) Load(key uint64) uint64 { return m[key] }

// Store implements Storage.
func (m MapStorage) Store(key, value uint64) error { m[key] = value; return nil }

// Exists implements Storage.
func (m MapStorage) Exists(key uint64) bool { _, ok := m[key]; return ok }

// Delete implements Storage.
func (m MapStorage) Delete(key uint64) { delete(m, key) }

// Context carries the per-call environment.
type Context struct {
	Contract  types.Address
	Caller    uint64 // low 8 bytes of the sender address
	Value     uint64
	Calldata  []uint64
	BlockNum  uint64
	BlockTime uint64 // seconds
	GasLimit  uint64
	Storage   Storage
}

// CallerWord converts an address to the word pushed by CALLER.
func CallerWord(a types.Address) uint64 {
	return binary.BigEndian.Uint64(a[:8])
}

// Result is the outcome of executing a program.
type Result struct {
	Status  types.ExecStatus
	GasUsed uint64
	Return  uint64
	Events  []types.Event
	Err     error
}

// Execution errors.
var (
	ErrStackUnderflow = errors.New("vm: stack underflow")
	ErrStackOverflow  = errors.New("vm: stack overflow")
	ErrBadJump        = errors.New("vm: jump to invalid destination")
	ErrBadOpcode      = errors.New("vm: invalid opcode")
	ErrTruncated      = errors.New("vm: truncated bytecode")
	ErrMemoryBounds   = errors.New("vm: memory index out of range")
	ErrOutOfGas       = errors.New("vm: out of gas")
	ErrReverted       = errors.New("vm: execution reverted")
)

const (
	stackLimit  = 1024
	memoryLimit = 4096
)

// journalEntry records a storage write so reverts can undo it.
type journalEntry struct {
	key     uint64
	prev    uint64
	existed bool
}

// Interpreter executes bytecode. One Interpreter may be reused across calls;
// it is not safe for concurrent use.
type Interpreter struct {
	words   [stackLimit]uint64
	stack   []uint64 // the checked path's view of words: its len is the depth
	memory  [memoryLimit]uint64
	memTop  int // memory[memTop:] is still zero: all a call has to clear is below it
	journal []journalEntry
	events  []types.Event // logged by the call in progress; its Result takes them
}

// New returns a fresh interpreter.
func New() *Interpreter { return new(Interpreter) }

// reset readies the interpreter for a new call.
func (in *Interpreter) reset() {
	in.stack = in.words[:0]
	in.journal = in.journal[:0]
	in.events = nil
	clear(in.memory[:in.memTop])
	in.memTop = 0
}

// Execute runs code within ctx. Gas accounting: the transaction base cost
// and calldata cost must be charged by the caller (see ChargeIntrinsic);
// ctx.GasLimit is the execution budget. It decodes the byte stream as it
// goes; a caller that runs the same code many times decodes it once with
// Decode and calls Run, which yields the same Result.
func (in *Interpreter) Execute(code []byte, ctx *Context) Result {
	in.reset()
	return in.run(code, ctx, 0, ctx.GasLimit)
}

// run is the checked byte-stream loop: every opcode charges its own gas and
// checks its own stack bounds. It starts from any (pc, gas, stack), which is
// how Run hands a call over to it part-way (see program.go).
func (in *Interpreter) run(code []byte, ctx *Context, pc int, gas uint64) Result {
	charge := func(amount uint64) bool {
		if gas < amount {
			gas = 0
			return false
		}
		gas -= amount
		return true
	}
	fail := func(status types.ExecStatus, err error) Result { return in.fail(ctx, gas, status, err) }

	for pc < len(code) {
		op := Op(code[pc])
		pc++
		switch op {
		case STOP:
			return Result{Status: types.StatusOK, GasUsed: ctx.GasLimit - gas, Events: in.events}

		case PUSH:
			if pc+8 > len(code) {
				return fail(types.StatusInvalid, ErrTruncated)
			}
			if !charge(gasBase) {
				return fail(types.StatusOutOfGas, ErrOutOfGas)
			}
			if len(in.stack) >= stackLimit {
				return fail(types.StatusInvalid, ErrStackOverflow)
			}
			in.stack = append(in.stack, binary.BigEndian.Uint64(code[pc:]))
			pc += 8

		case POP:
			if !charge(gasBase) {
				return fail(types.StatusOutOfGas, ErrOutOfGas)
			}
			if len(in.stack) < 1 {
				return fail(types.StatusInvalid, ErrStackUnderflow)
			}
			in.stack = in.stack[:len(in.stack)-1]

		case DUP, SWAP:
			if pc >= len(code) {
				return fail(types.StatusInvalid, ErrTruncated)
			}
			n := int(code[pc])
			pc++
			if !charge(gasBase) {
				return fail(types.StatusOutOfGas, ErrOutOfGas)
			}
			top := len(in.stack) - 1
			if top-n < 0 {
				return fail(types.StatusInvalid, ErrStackUnderflow)
			}
			if op == DUP {
				if len(in.stack) >= stackLimit {
					return fail(types.StatusInvalid, ErrStackOverflow)
				}
				in.stack = append(in.stack, in.stack[top-n])
			} else {
				in.stack[top], in.stack[top-n] = in.stack[top-n], in.stack[top]
			}

		case ADD, SUB, MUL, DIV, MOD, LT, GT, EQ, AND, OR, XOR:
			if !charge(gasBase) {
				return fail(types.StatusOutOfGas, ErrOutOfGas)
			}
			if len(in.stack) < 2 {
				return fail(types.StatusInvalid, ErrStackUnderflow)
			}
			b := in.stack[len(in.stack)-1]
			a := in.stack[len(in.stack)-2]
			in.stack = in.stack[:len(in.stack)-1]
			var r uint64
			switch op {
			case ADD:
				r = a + b
			case SUB:
				r = a - b
			case MUL:
				r = a * b
			case DIV:
				if b != 0 {
					r = a / b
				}
			case MOD:
				if b != 0 {
					r = a % b
				}
			case LT:
				if a < b {
					r = 1
				}
			case GT:
				if a > b {
					r = 1
				}
			case EQ:
				if a == b {
					r = 1
				}
			case AND:
				r = a & b
			case OR:
				r = a | b
			case XOR:
				r = a ^ b
			}
			in.stack[len(in.stack)-1] = r

		case ISZERO, NOT:
			if !charge(gasBase) {
				return fail(types.StatusOutOfGas, ErrOutOfGas)
			}
			if len(in.stack) < 1 {
				return fail(types.StatusInvalid, ErrStackUnderflow)
			}
			a := in.stack[len(in.stack)-1]
			if op == ISZERO {
				if a == 0 {
					in.stack[len(in.stack)-1] = 1
				} else {
					in.stack[len(in.stack)-1] = 0
				}
			} else {
				in.stack[len(in.stack)-1] = ^a
			}

		case JUMP, JUMPI:
			if !charge(gasJump) {
				return fail(types.StatusOutOfGas, ErrOutOfGas)
			}
			need := 1
			if op == JUMPI {
				need = 2
			}
			if len(in.stack) < need {
				return fail(types.StatusInvalid, ErrStackUnderflow)
			}
			dest := in.stack[len(in.stack)-1]
			in.stack = in.stack[:len(in.stack)-1]
			take := true
			if op == JUMPI {
				cond := in.stack[len(in.stack)-1]
				in.stack = in.stack[:len(in.stack)-1]
				take = cond != 0
			}
			if take {
				if dest >= uint64(len(code)) || Op(code[dest]) != JUMPDEST {
					return fail(types.StatusInvalid, ErrBadJump)
				}
				pc = int(dest)
			}

		case JUMPDEST:
			if !charge(gasBase) {
				return fail(types.StatusOutOfGas, ErrOutOfGas)
			}

		case MLOAD, MSTORE:
			if !charge(gasBase) {
				return fail(types.StatusOutOfGas, ErrOutOfGas)
			}
			if op == MLOAD {
				if len(in.stack) < 1 {
					return fail(types.StatusInvalid, ErrStackUnderflow)
				}
				idx := in.stack[len(in.stack)-1]
				if idx >= memoryLimit {
					return fail(types.StatusInvalid, ErrMemoryBounds)
				}
				in.stack[len(in.stack)-1] = in.memory[idx]
			} else {
				if len(in.stack) < 2 {
					return fail(types.StatusInvalid, ErrStackUnderflow)
				}
				val := in.stack[len(in.stack)-1]
				idx := in.stack[len(in.stack)-2]
				in.stack = in.stack[:len(in.stack)-2]
				if idx >= memoryLimit {
					return fail(types.StatusInvalid, ErrMemoryBounds)
				}
				in.memory[idx] = val
				in.memTop = max(in.memTop, int(idx)+1)
			}

		case SLOAD:
			if !charge(gasSLoad) {
				return fail(types.StatusOutOfGas, ErrOutOfGas)
			}
			if len(in.stack) < 1 {
				return fail(types.StatusInvalid, ErrStackUnderflow)
			}
			key := in.stack[len(in.stack)-1]
			in.stack[len(in.stack)-1] = ctx.Storage.Load(key)

		case SSTORE:
			if len(in.stack) < 2 {
				return fail(types.StatusInvalid, ErrStackUnderflow)
			}
			val := in.stack[len(in.stack)-1]
			key := in.stack[len(in.stack)-2]
			in.stack = in.stack[:len(in.stack)-2]
			var status types.ExecStatus
			var err error
			if gas, status, err = in.sstore(ctx.Storage, key, val, gas); err != nil {
				return fail(status, err)
			}

		case MAPKEY:
			if !charge(gasMapKey) {
				return fail(types.StatusOutOfGas, ErrOutOfGas)
			}
			if len(in.stack) < 2 {
				return fail(types.StatusInvalid, ErrStackUnderflow)
			}
			key := in.stack[len(in.stack)-1]
			slot := in.stack[len(in.stack)-2]
			in.stack = in.stack[:len(in.stack)-1]
			in.stack[len(in.stack)-1] = mapKey(slot, key)

		case CALLER, CALLVALUE, CALLDATASIZE, TIMESTAMP, NUMBER, GASREMAINING:
			if !charge(gasBase) {
				return fail(types.StatusOutOfGas, ErrOutOfGas)
			}
			if len(in.stack) >= stackLimit {
				return fail(types.StatusInvalid, ErrStackOverflow)
			}
			var v uint64
			switch op {
			case CALLER:
				v = ctx.Caller
			case CALLVALUE:
				v = ctx.Value
			case CALLDATASIZE:
				v = uint64(len(ctx.Calldata))
			case TIMESTAMP:
				v = ctx.BlockTime
			case NUMBER:
				v = ctx.BlockNum
			case GASREMAINING:
				v = gas
			}
			in.stack = append(in.stack, v)

		case CALLDATA:
			if !charge(gasBase) {
				return fail(types.StatusOutOfGas, ErrOutOfGas)
			}
			if len(in.stack) < 1 {
				return fail(types.StatusInvalid, ErrStackUnderflow)
			}
			idx := in.stack[len(in.stack)-1]
			var v uint64
			if idx < uint64(len(ctx.Calldata)) {
				v = ctx.Calldata[idx]
			}
			in.stack[len(in.stack)-1] = v

		case LOG:
			if pc >= len(code) {
				return fail(types.StatusInvalid, ErrTruncated)
			}
			nargs := int(code[pc])
			pc++
			if !charge(gasLogBase + uint64(nargs)*gasLogArg) {
				return fail(types.StatusOutOfGas, ErrOutOfGas)
			}
			if len(in.stack) < nargs+1 {
				return fail(types.StatusInvalid, ErrStackUnderflow)
			}
			top := len(in.stack) - 1
			in.log(ctx.Contract, in.stack[top], in.stack[top-nargs:top])
			in.stack = in.stack[:top-nargs]

		case RETURN:
			if !charge(gasBase) {
				return fail(types.StatusOutOfGas, ErrOutOfGas)
			}
			if len(in.stack) < 1 {
				return fail(types.StatusInvalid, ErrStackUnderflow)
			}
			return Result{
				Status:  types.StatusOK,
				GasUsed: ctx.GasLimit - gas,
				Return:  in.stack[len(in.stack)-1],
				Events:  in.events,
			}

		case REVERT:
			return fail(types.StatusReverted, ErrReverted)

		default:
			return fail(types.StatusInvalid, fmt.Errorf("%w: %d at pc %d", ErrBadOpcode, byte(op), pc-1))
		}
	}
	// Fell off the end of the code: treated as STOP.
	return Result{Status: types.StatusOK, GasUsed: ctx.GasLimit - gas, Events: in.events}
}

// fail ends a call that does not succeed with gas left of its limit: storage
// writes are undone and events dropped.
func (in *Interpreter) fail(ctx *Context, gas uint64, status types.ExecStatus, err error) Result {
	in.revert(ctx.Storage)
	return Result{Status: status, GasUsed: ctx.GasLimit - gas, Err: err}
}

// sstore prices and performs one SSTORE against the gas left, returning what
// remains. Its price depends on whether the slot exists, which is why it is
// the one opcode whose gas no block summary can hold. On out-of-gas the
// remainder is zero, like every other out-of-gas.
func (in *Interpreter) sstore(st Storage, key, val, gas uint64) (uint64, types.ExecStatus, error) {
	cost := uint64(gasSStoreUpdate)
	existed := st.Exists(key)
	if !existed {
		cost = gasSStoreNew
	}
	if gas < cost {
		return 0, types.StatusOutOfGas, ErrOutOfGas
	}
	gas -= cost
	in.journal = append(in.journal, journalEntry{key: key, prev: st.Load(key), existed: existed})
	if err := st.Store(key, val); err != nil {
		return gas, types.StatusBudgetExceeded, err
	}
	return gas, types.StatusOK, nil
}

// log records the event a LOG emits; args is copied, in stack order.
func (in *Interpreter) log(contract types.Address, id uint64, args []uint64) {
	in.events = append(in.events, types.Event{
		Contract: contract,
		Name:     "event-" + strconv.FormatUint(id, 10),
		Data:     append(make([]uint64, 0, len(args)), args...),
	})
}

// revert undoes journalled storage writes in reverse order.
func (in *Interpreter) revert(st Storage) {
	for i := len(in.journal) - 1; i >= 0; i-- {
		e := in.journal[i]
		if !e.existed {
			st.Delete(e.key)
			continue
		}
		// Best effort: Store may error on constrained backends, but the
		// value being restored was previously accepted.
		_ = st.Store(e.key, e.prev)
	}
	in.journal = in.journal[:0]
}

// mapKey derives the storage key for mapping slot[key], mixing the two
// words with an avalanche hash (SplitMix64 finalizer).
func mapKey(slot, key uint64) uint64 {
	x := slot*0x9E3779B97F4A7C15 + key
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ChargeIntrinsic returns the intrinsic gas of a transaction (base cost
// plus calldata cost), as charged before execution begins.
func ChargeIntrinsic(dataBytes int) uint64 {
	return GasTxBase + uint64(dataBytes)*GasTxDataByte
}

// EncodeCalldata packs a function selector and arguments into calldata
// words (word 0 is the selector).
func EncodeCalldata(selector uint64, args ...uint64) []uint64 {
	out := make([]uint64, 0, 1+len(args))
	out = append(out, selector)
	return append(out, args...)
}

// Disassemble renders bytecode as human-readable assembly, one instruction
// per line, used by compiler tests and debugging.
func Disassemble(code []byte) string {
	var out []byte
	pc := 0
	for pc < len(code) {
		op := Op(code[pc])
		out = append(out, fmt.Sprintf("%04d %s", pc, op)...)
		pc++
		switch op {
		case PUSH:
			if pc+8 <= len(code) {
				out = append(out, fmt.Sprintf(" %d", binary.BigEndian.Uint64(code[pc:]))...)
				pc += 8
			}
		case DUP, SWAP, LOG:
			if pc < len(code) {
				out = append(out, fmt.Sprintf(" %d", code[pc])...)
				pc++
			}
		}
		out = append(out, '\n')
	}
	return string(out)
}
