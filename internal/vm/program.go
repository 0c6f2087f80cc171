package vm

import (
	"encoding/binary"

	"diablo/internal/types"
)

// Internal opcodes of the decoded form. They continue the bytecode numbering
// so that Run's dispatch switch stays one dense jump table; numbered apart
// from the rest, the compiler falls back to a search and the gain is gone.
const (
	opBlock     Op = REVERT + 1 + iota // basic-block entry; imm indexes Program.blocks
	opPushMLoad                        // PUSH k; MLOAD with k inside memory: imm is k
	opPushJump                         // PUSH d; JUMP with d an aligned JUMPDEST: imm is its instruction index
	opPushJumpI                        // PUSH d; JUMPI, likewise
	opChecked                          // the byte-stream loop takes over at pc imm
)

// inst is one decoded instruction.
type inst struct {
	op Op
	n  uint8 // DUP and SWAP depth, LOG argument count
	// imm is the PUSH word, or what the internal opcodes above say. On MLOAD,
	// MSTORE and GASREMAINING it is the static gas of the instructions after
	// this one in its block: the block entry has already charged it, these
	// three may have to report the gas left, and it is not spent yet.
	imm uint64
}

// block summarises a basic block, a run of instructions entered only at its
// first and left only at its last: the gas all of them charge (SSTORE, priced
// at run time, ends a block and counts zero), the stack depth the block needs
// on entry so that none underflows, and the most the stack grows above the
// entry depth at any point inside.
type block struct {
	pc   int // byte offset of the first instruction
	gas  uint64
	need int
	grow int
}

// Program is bytecode decoded once for Interpreter.Run. It is immutable, so
// interpreters on several goroutines may run the same Program.
type Program struct {
	code   []byte
	insts  []inst
	blocks []block
	// entry maps the byte offset of every JUMPDEST that starts an
	// instruction to the index of its block entry in insts; every other
	// offset holds -1.
	entry []int32
}

// width is the encoded size of an instruction.
func width(op Op) int {
	switch op {
	case PUSH:
		return 9
	case DUP, SWAP, LOG:
		return 2
	}
	return 1
}

// effect is what an instruction statically does: how many words it needs on
// the stack, how many it leaves in their place, and the gas it charges.
func effect(op Op, n int) (pops, pushes int, gas uint64) {
	switch op {
	case STOP, REVERT:
		return 0, 0, 0
	case PUSH, CALLER, CALLVALUE, CALLDATASIZE, TIMESTAMP, NUMBER, GASREMAINING:
		return 0, 1, gasBase
	case POP:
		return 1, 0, gasBase
	case DUP:
		return n + 1, n + 2, gasBase
	case SWAP:
		return n + 1, n + 1, gasBase
	case ISZERO, NOT, MLOAD, CALLDATA:
		return 1, 1, gasBase
	case JUMP:
		return 1, 0, gasJump
	case JUMPI:
		return 2, 0, gasJump
	case JUMPDEST:
		return 0, 0, gasBase
	case MSTORE:
		return 2, 0, gasBase
	case SLOAD:
		return 1, 1, gasSLoad
	case SSTORE:
		return 2, 0, 0
	case MAPKEY:
		return 2, 1, gasMapKey
	case LOG:
		return n + 1, 0, gasLogBase + uint64(n)*gasLogArg
	case RETURN:
		return 1, 1, gasBase
	}
	return 2, 1, gasBase // the binary operators
}

// decoder builds a Program one basic block at a time.
type decoder struct {
	p     *Program
	open  bool
	first int // index in p.insts of the open block's first instruction
	depth int // stack depth relative to the open block's entry
	cur   block
}

// begin opens a block at byte offset pc.
func (d *decoder) begin(pc int) {
	d.p.insts = append(d.p.insts, inst{op: opBlock, imm: uint64(len(d.p.blocks))})
	d.open, d.first, d.depth, d.cur = true, len(d.p.insts), 0, block{pc: pc}
}

// add folds one bytecode instruction into the open block's summary and
// returns the gas the block has charged up to and including it.
func (d *decoder) add(op Op, n int) uint64 {
	pops, pushes, gas := effect(op, n)
	d.cur.need = max(d.cur.need, pops-d.depth)
	d.depth += pushes - pops
	d.cur.grow = max(d.cur.grow, d.depth)
	d.cur.gas += gas
	return d.cur.gas
}

// end closes the open block, if any.
func (d *decoder) end() {
	if !d.open {
		return
	}
	for i := d.first; i < len(d.p.insts); i++ {
		switch in := &d.p.insts[i]; in.op {
		case MLOAD, MSTORE, GASREMAINING:
			in.imm = d.cur.gas - in.imm
		}
	}
	d.p.blocks = append(d.p.blocks, d.cur)
	d.open = false
}

// Decode turns bytecode into a Program. It accepts any bytes: what the
// byte-stream loop would reject when it got there (an unknown opcode, an
// instruction cut off by the end of the code) decodes into a hand-over to
// that loop, which then reports it.
func Decode(code []byte) *Program {
	p := &Program{code: code, entry: make([]int32, len(code))}

	// First find the JUMPDESTs that start an instruction, so that the second
	// pass knows which PUSH d; JUMP pairs have a valid, aligned target.
	for pc := range p.entry {
		p.entry[pc] = -1
	}
	for pc := 0; pc < len(code); pc += width(Op(code[pc])) {
		if Op(code[pc]) == JUMPDEST {
			p.entry[pc] = 0
		}
	}
	aligned := func(dest uint64) bool { return dest < uint64(len(code)) && p.entry[dest] >= 0 }

	d := decoder{p: p}
	pc := 0
	for pc < len(code) {
		op := Op(code[pc])
		w := width(op)
		if op > REVERT || pc+w > len(code) {
			d.end()
			p.insts = append(p.insts, inst{op: opChecked, imm: uint64(pc)})
			if op > REVERT {
				pc++
				continue
			}
			break // cut off: the bytes left belong to this instruction
		}
		if op == JUMPDEST {
			d.end()
			p.entry[pc] = int32(len(p.insts))
		}
		if !d.open {
			d.begin(pc)
		}
		in := inst{op: op}
		switch op {
		case JUMPDEST:
			d.add(op, 0)
			pc++
			continue // the block entry stands for it
		case PUSH:
			in.imm = binary.BigEndian.Uint64(code[pc+1:])
			d.add(op, 0)
			if pc+w < len(code) {
				switch next := Op(code[pc+w]); {
				case next == MLOAD && in.imm < memoryLimit:
					in.op, op = opPushMLoad, next
				case next == JUMP && aligned(in.imm):
					in.op, op = opPushJump, next
				case next == JUMPI && aligned(in.imm):
					in.op, op = opPushJumpI, next
				}
				if in.op != PUSH {
					d.add(op, 0)
					w++
				}
			}
		case DUP, SWAP, LOG:
			in.n = code[pc+1]
			d.add(op, int(in.n))
		case MLOAD, MSTORE, GASREMAINING:
			in.imm = d.add(op, 0)
		default:
			d.add(op, 0)
		}
		p.insts = append(p.insts, in)
		pc += w
		switch op {
		case JUMP, JUMPI, SSTORE, STOP, RETURN, REVERT:
			d.end()
		}
	}
	if pc >= len(code) {
		// Running off the end of the code is a STOP.
		p.insts = append(p.insts, inst{op: STOP})
	}
	d.end()

	for i := range p.insts {
		if in := &p.insts[i]; in.op == opPushJump || in.op == opPushJumpI {
			in.imm = uint64(p.entry[in.imm])
		}
	}
	return p
}

// Run executes a decoded program within ctx and returns exactly what
// Execute returns for the bytecode it was decoded from: the same status, gas,
// return value, events, error and storage accesses.
//
// It is the unchecked path. A block entry compares the gas left and the stack
// depth with the block's summary once; when they suffice no instruction of
// the block can run out of gas, underflow or overflow, so the body runs
// without those checks, on a stack indexed by sp. When they do not, or at
// anything else Run does not handle itself, the call continues on the
// byte-stream loop from the state reached, which fails where and how it
// always did. That loop is therefore the only place the failure rules live.
func (in *Interpreter) Run(p *Program, ctx *Context) Result {
	in.reset()
	var (
		insts = p.insts
		stack = &in.words
		mem   = &in.memory
		sp    int
		gas   = ctx.GasLimit
	)
	for i := 0; ; {
		ins := &insts[i]
		i++
		switch ins.op {
		case opBlock:
			b := &p.blocks[ins.imm]
			if gas < b.gas || sp < b.need || sp+b.grow > stackLimit {
				return in.resume(p, ctx, b.pc, gas, sp)
			}
			gas -= b.gas
		case opChecked:
			return in.resume(p, ctx, int(ins.imm), gas, sp)

		case PUSH:
			stack[sp] = ins.imm
			sp++
		case opPushMLoad:
			stack[sp] = mem[ins.imm&(memoryLimit-1)]
			sp++
		case POP:
			sp--
		case DUP:
			stack[sp] = stack[sp-1-int(ins.n)]
			sp++
		case SWAP:
			j := sp - 1 - int(ins.n)
			stack[sp-1], stack[j] = stack[j], stack[sp-1]

		case ADD:
			sp--
			stack[sp-1] += stack[sp]
		case SUB:
			sp--
			stack[sp-1] -= stack[sp]
		case MUL:
			sp--
			stack[sp-1] *= stack[sp]
		case DIV:
			sp--
			if b := stack[sp]; b != 0 {
				stack[sp-1] /= b
			} else {
				stack[sp-1] = 0
			}
		case MOD:
			sp--
			if b := stack[sp]; b != 0 {
				stack[sp-1] %= b
			} else {
				stack[sp-1] = 0
			}
		case LT:
			sp--
			stack[sp-1] = word(stack[sp-1] < stack[sp])
		case GT:
			sp--
			stack[sp-1] = word(stack[sp-1] > stack[sp])
		case EQ:
			sp--
			stack[sp-1] = word(stack[sp-1] == stack[sp])
		case AND:
			sp--
			stack[sp-1] &= stack[sp]
		case OR:
			sp--
			stack[sp-1] |= stack[sp]
		case XOR:
			sp--
			stack[sp-1] ^= stack[sp]
		case ISZERO:
			stack[sp-1] = word(stack[sp-1] == 0)
		case NOT:
			stack[sp-1] = ^stack[sp-1]

		case opPushJump:
			i = int(ins.imm)
		case opPushJumpI:
			sp--
			if stack[sp] != 0 {
				i = int(ins.imm)
			}
		case JUMP, JUMPI:
			sp--
			dest := stack[sp]
			if ins.op == JUMPI {
				sp--
				if stack[sp] == 0 {
					continue
				}
			}
			if dest >= uint64(len(p.code)) || Op(p.code[dest]) != JUMPDEST {
				return in.fail(ctx, gas, types.StatusInvalid, ErrBadJump)
			}
			if p.entry[dest] < 0 {
				// A JUMPDEST byte inside a PUSH immediate: the byte stream
				// decodes differently from there on.
				return in.resume(p, ctx, int(dest), gas, sp)
			}
			i = int(p.entry[dest])

		case MLOAD:
			idx := stack[sp-1]
			if idx >= memoryLimit {
				return in.fail(ctx, gas+ins.imm, types.StatusInvalid, ErrMemoryBounds)
			}
			stack[sp-1] = mem[idx]
		case MSTORE:
			sp -= 2
			idx := stack[sp]
			if idx >= memoryLimit {
				return in.fail(ctx, gas+ins.imm, types.StatusInvalid, ErrMemoryBounds)
			}
			mem[idx] = stack[sp+1]
			in.memTop = max(in.memTop, int(idx)+1)

		case SLOAD:
			stack[sp-1] = ctx.Storage.Load(stack[sp-1])
		case SSTORE:
			sp -= 2
			var status types.ExecStatus
			var err error
			if gas, status, err = in.sstore(ctx.Storage, stack[sp], stack[sp+1], gas); err != nil {
				return in.fail(ctx, gas, status, err)
			}
		case MAPKEY:
			sp--
			stack[sp-1] = mapKey(stack[sp-1], stack[sp])

		case CALLER:
			stack[sp] = ctx.Caller
			sp++
		case CALLVALUE:
			stack[sp] = ctx.Value
			sp++
		case CALLDATASIZE:
			stack[sp] = uint64(len(ctx.Calldata))
			sp++
		case TIMESTAMP:
			stack[sp] = ctx.BlockTime
			sp++
		case NUMBER:
			stack[sp] = ctx.BlockNum
			sp++
		case GASREMAINING:
			stack[sp] = gas + ins.imm
			sp++
		case CALLDATA:
			var v uint64
			if idx := stack[sp-1]; idx < uint64(len(ctx.Calldata)) {
				v = ctx.Calldata[idx]
			}
			stack[sp-1] = v

		case LOG:
			sp -= int(ins.n) + 1
			in.log(ctx.Contract, stack[sp+int(ins.n)], stack[sp:sp+int(ins.n)])
		case STOP:
			return Result{Status: types.StatusOK, GasUsed: ctx.GasLimit - gas, Events: in.events}
		case RETURN:
			return Result{Status: types.StatusOK, GasUsed: ctx.GasLimit - gas, Return: stack[sp-1], Events: in.events}
		case REVERT:
			return in.fail(ctx, gas, types.StatusReverted, ErrReverted)
		}
	}
}

// resume continues a call on the byte-stream loop at pc, with the gas left
// and the sp words Run has on the stack.
func (in *Interpreter) resume(p *Program, ctx *Context, pc int, gas uint64, sp int) Result {
	in.stack = in.words[:sp]
	return in.run(p.code, ctx, pc, gas)
}

func word(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
