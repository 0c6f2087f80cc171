package avm

import (
	"encoding/binary"
	"fmt"
)

// ReferenceExecute exposes referenceExecute to the external test package.
var ReferenceExecute = referenceExecute

// referenceExecute is Execute as it stood before Machine existed (commit
// e905fc4), body verbatim: five closures over per-call buffers, one check
// per opcode. The differential tests hold Machine.Execute against it, so
// the rewritten byte-stream loop is checked against the old behaviour and
// not only against code written alongside it.
func referenceExecute(program []byte, ctx *Context) Result {
	budget := ctx.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	var (
		stack   []uint64
		scratch [scratchSlots]uint64
		calls   []int
		events  []Event
		journal []journalEntry
		ops     uint64
	)
	rollback := func() {
		for i := len(journal) - 1; i >= 0; i-- {
			e := journal[i]
			if e.existed {
				_ = ctx.State.Put(e.key, e.prev)
			} else {
				ctx.State.Delete(e.key)
			}
		}
	}
	fail := func(o Outcome, err error) Result {
		rollback()
		return Result{Outcome: o, OpsUsed: ops, Err: err}
	}
	pop := func() (uint64, bool) {
		if len(stack) == 0 {
			return 0, false
		}
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v, true
	}
	push := func(v uint64) bool {
		if len(stack) >= stackLimit {
			return false
		}
		stack = append(stack, v)
		return true
	}
	branchTarget := func(pc int) (int, bool) {
		if pc+2 > len(program) {
			return 0, false
		}
		off := int(int16(binary.BigEndian.Uint16(program[pc:])))
		dst := pc + 2 + off
		if dst < 0 || dst > len(program) {
			return 0, false
		}
		return dst, true
	}

	pc := 0
	for pc < len(program) {
		op := Op(program[pc])
		pc++
		cost := opCost(op)
		if ops+cost > budget {
			return fail(BudgetExceeded, fmt.Errorf("avm: budget of %d ops exceeded", budget))
		}
		ops += cost

		switch op {
		case OpErr:
			return fail(Errored, ErrErrOp)

		case OpPushInt:
			if pc+8 > len(program) {
				return fail(Errored, ErrTruncated)
			}
			if !push(binary.BigEndian.Uint64(program[pc:])) {
				return fail(Errored, ErrStackOverflow)
			}
			pc += 8

		case OpPop:
			if _, ok := pop(); !ok {
				return fail(Errored, ErrStackUnderflow)
			}

		case OpDup:
			if len(stack) == 0 {
				return fail(Errored, ErrStackUnderflow)
			}
			if !push(stack[len(stack)-1]) {
				return fail(Errored, ErrStackOverflow)
			}

		case OpSwap:
			if len(stack) < 2 {
				return fail(Errored, ErrStackUnderflow)
			}
			stack[len(stack)-1], stack[len(stack)-2] = stack[len(stack)-2], stack[len(stack)-1]

		case OpSelect:
			a, ok1 := pop()
			b, ok2 := pop()
			c, ok3 := pop()
			if !ok1 || !ok2 || !ok3 {
				return fail(Errored, ErrStackUnderflow)
			}
			if a != 0 {
				push(b)
			} else {
				push(c)
			}

		case OpPlus, OpMinus, OpMul, OpDiv, OpMod, OpLt, OpGt, OpLe, OpGe, OpEq, OpNeq, OpAnd, OpOr:
			b, ok1 := pop()
			a, ok2 := pop()
			if !ok1 || !ok2 {
				return fail(Errored, ErrStackUnderflow)
			}
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
					return fail(Errored, ErrDivByZero)
				}
				r = a / b
			case OpMod:
				if b == 0 {
					return fail(Errored, ErrDivByZero)
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
			push(r)

		case OpNot:
			a, ok := pop()
			if !ok {
				return fail(Errored, ErrStackUnderflow)
			}
			push(b2u(a == 0))

		case OpBranch:
			dst, ok := branchTarget(pc)
			if !ok {
				return fail(Errored, ErrBadBranch)
			}
			pc = dst

		case OpBZ, OpBNZ:
			cond, ok := pop()
			if !ok {
				return fail(Errored, ErrStackUnderflow)
			}
			dst, ok2 := branchTarget(pc)
			if !ok2 {
				return fail(Errored, ErrBadBranch)
			}
			take := (op == OpBZ && cond == 0) || (op == OpBNZ && cond != 0)
			if take {
				pc = dst
			} else {
				pc += 2
			}

		case OpCallSub:
			if len(calls) >= callDepth {
				return fail(Errored, ErrCallDepth)
			}
			dst, ok := branchTarget(pc)
			if !ok {
				return fail(Errored, ErrBadBranch)
			}
			calls = append(calls, pc+2)
			pc = dst

		case OpRetSub:
			if len(calls) == 0 {
				return fail(Errored, ErrRetNoCall)
			}
			pc = calls[len(calls)-1]
			calls = calls[:len(calls)-1]

		case OpLoad, OpStore:
			if pc >= len(program) {
				return fail(Errored, ErrTruncated)
			}
			slot := program[pc]
			pc++
			if op == OpLoad {
				if !push(scratch[slot]) {
					return fail(Errored, ErrStackOverflow)
				}
			} else {
				v, ok := pop()
				if !ok {
					return fail(Errored, ErrStackUnderflow)
				}
				scratch[slot] = v
			}

		case OpAppGlobalGet:
			key, ok := pop()
			if !ok {
				return fail(Errored, ErrStackUnderflow)
			}
			v, _ := ctx.State.Get(key)
			push(v)

		case OpAppGlobalPut:
			value, ok1 := pop()
			key, ok2 := pop()
			if !ok1 || !ok2 {
				return fail(Errored, ErrStackUnderflow)
			}
			prev, existed := ctx.State.Get(key)
			if err := ctx.State.Put(key, value); err != nil {
				return fail(Errored, err)
			}
			journal = append(journal, journalEntry{key: key, prev: prev, existed: existed})

		case OpTxnSender:
			if !push(ctx.Sender) {
				return fail(Errored, ErrStackOverflow)
			}

		case OpTxnNumArgs:
			if !push(uint64(len(ctx.Args))) {
				return fail(Errored, ErrStackOverflow)
			}

		case OpTxnArg:
			i, ok := pop()
			if !ok {
				return fail(Errored, ErrStackUnderflow)
			}
			var v uint64
			if i < uint64(len(ctx.Args)) {
				v = ctx.Args[i]
			}
			push(v)

		case OpGlobalRound:
			if !push(ctx.Round) {
				return fail(Errored, ErrStackOverflow)
			}

		case OpGlobalTime:
			if !push(ctx.Time) {
				return fail(Errored, ErrStackOverflow)
			}

		case OpLog:
			if pc >= len(program) {
				return fail(Errored, ErrTruncated)
			}
			nargs := int(program[pc])
			pc++
			if len(stack) < nargs+1 {
				return fail(Errored, ErrStackUnderflow)
			}
			id := stack[len(stack)-1]
			args := make([]uint64, nargs)
			copy(args, stack[len(stack)-1-nargs:len(stack)-1])
			stack = stack[:len(stack)-1-nargs]
			events = append(events, Event{ID: id, Args: args})

		case OpReturn:
			v, ok := pop()
			if !ok {
				return fail(Errored, ErrStackUnderflow)
			}
			if v == 0 {
				rollback()
				return Result{Outcome: Rejected, OpsUsed: ops}
			}
			return Result{Outcome: Approved, OpsUsed: ops, Events: events}

		default:
			return fail(Errored, fmt.Errorf("%w: %d at pc %d", ErrBadOpcode, byte(op), pc-1))
		}
	}
	return fail(Errored, ErrNoReturn)
}
