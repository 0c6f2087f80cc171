package avm

import "encoding/binary"

// Internal opcodes of the decoded form. They continue the bytecode numbering
// so that Run's dispatch switch stays one dense jump table.
const (
	opBlock   Op = OpReturn + 1 + iota // basic-block entry; imm indexes Program.blocks
	opChecked                          // the byte-stream loop takes over at pc imm
)

// inst is one decoded instruction.
type inst struct {
	op  Op
	n   uint8  // load and store slot, log argument count
	ret uint32 // callsub: byte offset of the instruction after it
	// imm is the pushint word, a branch's target as an instruction index, or
	// what the internal opcodes above say. On / % and app_global_put, which
	// can fail inside a block, it is the cost of the instructions after this
	// one in the block: the block entry has already metered them.
	imm uint64
}

// block summarises a basic block: the budget all its instructions cost, the
// stack depth it needs on entry so that none underflows, and the most the
// stack grows above the entry depth inside it.
type block struct {
	pc   int // byte offset of the first instruction
	cost uint64
	need int
	grow int
}

// Program is an AVM program decoded once for Machine.Run. It is immutable,
// so machines on several goroutines may run the same Program.
type Program struct {
	code   []byte
	insts  []inst
	blocks []block
	// entry maps the byte offset of every instruction that starts a block,
	// and len(code), to an index in insts; every other offset holds -1.
	entry []int32
}

// width is the encoded size of an instruction.
func width(op Op) int {
	switch op {
	case OpPushInt:
		return 9
	case OpBranch, OpBZ, OpBNZ, OpCallSub:
		return 3
	case OpLoad, OpStore, OpLog:
		return 2
	}
	return 1
}

// effect is what an instruction statically does to the stack: how many words
// it needs there and how many it leaves in their place.
func effect(op Op, n int) (pops, pushes int) {
	switch op {
	case OpErr, OpBranch, OpCallSub, OpRetSub:
		return 0, 0
	case OpPushInt, OpLoad, OpTxnSender, OpTxnNumArgs, OpGlobalRound, OpGlobalTime:
		return 0, 1
	case OpPop, OpBZ, OpBNZ, OpStore, OpReturn:
		return 1, 0
	case OpDup:
		return 1, 2
	case OpSwap:
		return 2, 2
	case OpSelect:
		return 3, 1
	case OpNot, OpAppGlobalGet, OpTxnArg:
		return 1, 1
	case OpAppGlobalPut:
		return 2, 0
	case OpLog:
		return n + 1, 0
	}
	return 2, 1 // the binary operators
}

// endsBlock reports whether control never falls from op into the next
// instruction of the same block.
func endsBlock(op Op) bool {
	switch op {
	case OpErr, OpBranch, OpBZ, OpBNZ, OpCallSub, OpRetSub, OpReturn:
		return true
	}
	return false
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
	d.p.entry[pc] = int32(len(d.p.insts))
	d.p.insts = append(d.p.insts, inst{op: opBlock, imm: uint64(len(d.p.blocks))})
	d.open, d.first, d.depth, d.cur = true, len(d.p.insts), 0, block{pc: pc}
}

// add appends an instruction to the open block and folds it into the summary.
func (d *decoder) add(in inst) {
	pops, pushes := effect(in.op, int(in.n))
	d.cur.need = max(d.cur.need, pops-d.depth)
	d.depth += pushes - pops
	d.cur.grow = max(d.cur.grow, d.depth)
	d.cur.cost += opCost(in.op)
	switch in.op {
	case OpDiv, OpMod, OpAppGlobalPut:
		in.imm = d.cur.cost // turned into the cost of the rest by end
	}
	d.p.insts = append(d.p.insts, in)
}

// end closes the open block, if any.
func (d *decoder) end() {
	if !d.open {
		return
	}
	for i := d.first; i < len(d.p.insts); i++ {
		switch in := &d.p.insts[i]; in.op {
		case OpDiv, OpMod, OpAppGlobalPut:
			in.imm = d.cur.cost - in.imm
		}
	}
	d.p.blocks = append(d.p.blocks, d.cur)
	d.open = false
}

// checked closes the open block and emits a hand-over to the byte-stream loop
// at byte offset pc.
func (d *decoder) checked(pc int) {
	d.end()
	d.p.entry[pc] = int32(len(d.p.insts))
	d.p.insts = append(d.p.insts, inst{op: opChecked, imm: uint64(pc)})
}

// Decode turns a program into its decoded form. It accepts any bytes: what
// the byte-stream loop would reject when it got there (an unknown opcode, an
// instruction cut off by the end of the program, a branch out of bounds)
// decodes into a hand-over to that loop, which then reports it; so does a
// branch into the middle of an instruction, which the AVM allows.
func Decode(code []byte) *Program {
	p := &Program{code: code, entry: make([]int32, len(code)+1)}
	for pc := range p.entry {
		p.entry[pc] = -1
	}
	// next reads the instruction at pc: its opcode, its width and, for a
	// branch, its target. ok is false when the checked loop has to deal with
	// it: an unknown opcode (one byte wide), an instruction the end of the
	// program cuts off (it takes the bytes left and one more, so that no
	// instruction is taken to follow it), or a branch out of bounds.
	next := func(pc int) (op Op, w, dst int, ok bool) {
		op = Op(code[pc])
		w = width(op)
		switch {
		case op > OpReturn:
			return op, 1, 0, false
		case pc+w > len(code):
			return op, len(code) + 1 - pc, 0, false
		case w == 3:
			dst, ok = branchTarget(code, pc+1)
			return op, w, dst, ok
		}
		return op, w, 0, true
	}

	// A branch target starts a block.
	leader := make([]bool, len(code)+1)
	for pc := 0; pc < len(code); {
		_, w, dst, ok := next(pc)
		if ok && w == 3 {
			leader[dst] = true
		}
		pc += w
	}

	d := decoder{p: p}
	type branch struct{ inst, dst int }
	var branches []branch
	pc := 0
	for pc < len(code) {
		op, w, dst, ok := next(pc)
		if !ok {
			d.checked(pc)
			pc += w
			continue
		}
		if leader[pc] || !d.open {
			d.end()
			d.begin(pc)
		}
		in := inst{op: op}
		switch w {
		case 9:
			in.imm = binary.BigEndian.Uint64(code[pc+1:])
		case 2:
			in.n = code[pc+1]
		case 3:
			in.ret = uint32(pc + w)
			branches = append(branches, branch{len(p.insts), dst})
		}
		d.add(in)
		pc += w
		if endsBlock(op) {
			d.end()
		}
	}
	if pc == len(code) {
		// Running off the end is the checked loop's "ended without return".
		d.checked(pc)
	}
	d.end()

	// A branch into the middle of an instruction (or to the end of a program
	// cut off there) continues on the checked loop from its target.
	for _, b := range branches {
		if p.entry[b.dst] < 0 {
			d.checked(b.dst)
		}
		p.insts[b.inst].imm = uint64(p.entry[b.dst])
	}
	return p
}

// Run executes a decoded program and returns exactly what Execute returns
// for the bytes it was decoded from: the same outcome, ops used, events,
// error and state accesses.
//
// It is the unchecked path. A block entry compares the budget left and the
// stack depth with the block's summary once; when they suffice no
// instruction of the block can exceed the budget, underflow or overflow, so
// the body runs without those checks, on a stack indexed by sp. When they do
// not, or at anything else Run does not handle itself, the call continues on
// the byte-stream loop from the state reached, which fails where and how it
// always did. That loop is therefore the only place the failure rules live.
func (m *Machine) Run(p *Program, ctx *Context) Result {
	m.reset(ctx)
	var (
		insts  = p.insts
		blocks = p.blocks
		stack  = &m.words
		sp     int
		left   = m.budget // what the blocks entered so far have not used
	)
	for i := 0; ; {
		ins := &insts[i]
		i++
		switch ins.op {
		case opBlock:
			b := &blocks[ins.imm]
			if left < b.cost || sp < b.need || sp+b.grow > stackLimit {
				return m.resume(p, ctx, b.pc, left, sp)
			}
			left -= b.cost
		case opChecked:
			return m.resume(p, ctx, int(ins.imm), left, sp)

		case OpErr:
			return m.fail(ctx, Errored, m.budget-left, ErrErrOp)
		case OpPushInt:
			stack[sp] = ins.imm
			sp++
		case OpPop:
			sp--
		case OpDup:
			stack[sp] = stack[sp-1]
			sp++
		case OpSwap:
			stack[sp-1], stack[sp-2] = stack[sp-2], stack[sp-1]
		case OpSelect:
			sp -= 2
			if stack[sp+1] != 0 {
				stack[sp-1] = stack[sp]
			}

		case OpPlus:
			sp--
			stack[sp-1] += stack[sp]
		case OpMinus:
			sp--
			stack[sp-1] -= stack[sp]
		case OpMul:
			sp--
			stack[sp-1] *= stack[sp]
		case OpDiv:
			sp--
			if stack[sp] == 0 {
				return m.fail(ctx, Errored, m.budget-left-ins.imm, ErrDivByZero)
			}
			stack[sp-1] /= stack[sp]
		case OpMod:
			sp--
			if stack[sp] == 0 {
				return m.fail(ctx, Errored, m.budget-left-ins.imm, ErrDivByZero)
			}
			stack[sp-1] %= stack[sp]
		case OpLt:
			sp--
			stack[sp-1] = b2u(stack[sp-1] < stack[sp])
		case OpGt:
			sp--
			stack[sp-1] = b2u(stack[sp-1] > stack[sp])
		case OpLe:
			sp--
			stack[sp-1] = b2u(stack[sp-1] <= stack[sp])
		case OpGe:
			sp--
			stack[sp-1] = b2u(stack[sp-1] >= stack[sp])
		case OpEq:
			sp--
			stack[sp-1] = b2u(stack[sp-1] == stack[sp])
		case OpNeq:
			sp--
			stack[sp-1] = b2u(stack[sp-1] != stack[sp])
		case OpAnd:
			sp--
			stack[sp-1] = b2u(stack[sp-1] != 0 && stack[sp] != 0)
		case OpOr:
			sp--
			stack[sp-1] = b2u(stack[sp-1] != 0 || stack[sp] != 0)
		case OpNot:
			stack[sp-1] = b2u(stack[sp-1] == 0)

		case OpBranch:
			i = int(ins.imm)
		case OpBZ:
			sp--
			if stack[sp] == 0 {
				i = int(ins.imm)
			}
		case OpBNZ:
			sp--
			if stack[sp] != 0 {
				i = int(ins.imm)
			}
		case OpCallSub:
			if len(m.calls) >= callDepth {
				return m.fail(ctx, Errored, m.budget-left, ErrCallDepth)
			}
			m.calls = append(m.calls, int(ins.ret))
			i = int(ins.imm)
		case OpRetSub:
			if len(m.calls) == 0 {
				return m.fail(ctx, Errored, m.budget-left, ErrRetNoCall)
			}
			// Only callsub above pushes here, and what follows a callsub
			// starts a block, so the address has an entry.
			i = int(p.entry[m.calls[len(m.calls)-1]])
			m.calls = m.calls[:len(m.calls)-1]

		case OpLoad:
			stack[sp] = m.scratch[ins.n]
			sp++
		case OpStore:
			sp--
			m.scratch[ins.n] = stack[sp]
			m.scratchTop = max(m.scratchTop, int(ins.n)+1)

		case OpAppGlobalGet:
			stack[sp-1], _ = ctx.State.Get(stack[sp-1])
		case OpAppGlobalPut:
			sp -= 2
			if err := m.put(ctx.State, stack[sp], stack[sp+1]); err != nil {
				return m.fail(ctx, Errored, m.budget-left-ins.imm, err)
			}

		case OpTxnSender:
			stack[sp] = ctx.Sender
			sp++
		case OpTxnNumArgs:
			stack[sp] = uint64(len(ctx.Args))
			sp++
		case OpTxnArg:
			var v uint64
			if idx := stack[sp-1]; idx < uint64(len(ctx.Args)) {
				v = ctx.Args[idx]
			}
			stack[sp-1] = v
		case OpGlobalRound:
			stack[sp] = ctx.Round
			sp++
		case OpGlobalTime:
			stack[sp] = ctx.Time
			sp++

		case OpLog:
			sp -= int(ins.n) + 1
			m.log(stack[sp+int(ins.n)], stack[sp:sp+int(ins.n)])
		case OpReturn:
			if stack[sp-1] == 0 {
				return m.fail(ctx, Rejected, m.budget-left, nil)
			}
			return Result{Outcome: Approved, OpsUsed: m.budget - left, Events: m.events}
		}
	}
}

// resume continues a call on the byte-stream loop at pc, with left of the
// budget unused and the sp words Run has on the stack.
func (m *Machine) resume(p *Program, ctx *Context, pc int, left uint64, sp int) Result {
	m.stack = m.words[:sp]
	return m.run(p.code, ctx, pc, m.budget-left)
}
