package minisol

import (
	"encoding/binary"
	"fmt"

	"diablo/internal/types"
	"diablo/internal/vm"
)

// FuncMeta describes a compiled function for ABI encoding.
type FuncMeta struct {
	Name      string
	Selector  uint64
	NumParams int
	Returns   bool
	Public    bool
}

// Compiled is the output of the compiler: deployable bytecode plus ABI.
type Compiled struct {
	Name      string
	Code      []byte
	Functions map[string]*FuncMeta
	Events    map[string]*EventDecl
}

// Selector derives a function's dispatch selector from its name and arity.
func Selector(name string, numParams int) uint64 {
	sig := fmt.Sprintf("%s/%d", name, numParams)
	h := types.HashBytes([]byte(sig))
	return binary.BigEndian.Uint64(h[:8])
}

// resolveCall finds the public function fn of a contract and checks that it
// takes nargs arguments; both backends validate calls the same way.
func resolveCall(contract string, fns map[string]*FuncMeta, fn string, nargs int) (*FuncMeta, error) {
	meta, ok := fns[fn]
	if !ok {
		return nil, fmt.Errorf("minisol: contract %s has no function %q", contract, fn)
	}
	if !meta.Public {
		return nil, fmt.Errorf("minisol: function %q is not public", fn)
	}
	if nargs != meta.NumParams {
		return nil, fmt.Errorf("minisol: function %q takes %d arguments, got %d", fn, meta.NumParams, nargs)
	}
	return meta, nil
}

// Call validates a call of fn with nargs arguments and returns the
// function's metadata (its selector is calldata word 0).
func (c *Compiled) Call(fn string, nargs int) (*FuncMeta, error) {
	return resolveCall(c.Name, c.Functions, fn, nargs)
}

// Calldata builds the calldata words to invoke a compiled function.
func (c *Compiled) Calldata(fn string, args ...uint64) ([]uint64, error) {
	meta, err := c.Call(fn, len(args))
	if err != nil {
		return nil, err
	}
	return vm.EncodeCalldata(meta.Selector, args...), nil
}

// Compile parses and compiles MiniSol source to VM bytecode.
func Compile(src string) (*Compiled, error) {
	contract, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Generate(contract)
}

// compileError is a positioned semantic error.
func compileError(line int, format string, args ...any) error {
	return fmt.Errorf("minisol: line %d: %s", line, fmt.Sprintf(format, args...))
}

// scope maps local variable names to memory slots, with lexical nesting.
type scope struct {
	parent *scope
	vars   map[string]uint64
}

func (s *scope) lookup(name string) (uint64, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if slot, ok := cur.vars[name]; ok {
			return slot, true
		}
	}
	return 0, false
}

// generator holds code generation state for one contract.
type generator struct {
	contract *Contract
	asm      *vm.Assembler
	states   map[string]*StateVar
	events   map[string]*EventDecl
	funcs    map[string]*Function
	meta     map[string]*FuncMeta

	// paramSlots maps each function to its parameter memory slots.
	paramSlots map[string][]uint64
	nextSlot   uint64
	labelSeq   int

	// current function being generated.
	cur *Function
}

// Generate compiles a parsed contract.
func Generate(c *Contract) (*Compiled, error) {
	g := &generator{
		contract:   c,
		asm:        vm.NewAssembler(),
		states:     map[string]*StateVar{},
		events:     map[string]*EventDecl{},
		funcs:      map[string]*Function{},
		meta:       map[string]*FuncMeta{},
		paramSlots: map[string][]uint64{},
	}
	for _, sv := range c.States {
		if _, dup := g.states[sv.Name]; dup {
			return nil, compileError(sv.Line, "duplicate state variable %q", sv.Name)
		}
		g.states[sv.Name] = sv
	}
	for _, ev := range c.Events {
		if _, dup := g.events[ev.Name]; dup {
			return nil, compileError(ev.Line, "duplicate event %q", ev.Name)
		}
		g.events[ev.Name] = ev
	}
	for _, fn := range c.Funcs {
		if _, dup := g.funcs[fn.Name]; dup {
			return nil, compileError(fn.Line, "duplicate function %q", fn.Name)
		}
		if _, clash := g.states[fn.Name]; clash {
			return nil, compileError(fn.Line, "function %q shadows a state variable", fn.Name)
		}
		g.funcs[fn.Name] = fn
		g.meta[fn.Name] = &FuncMeta{
			Name:      fn.Name,
			Selector:  Selector(fn.Name, len(fn.Params)),
			NumParams: len(fn.Params),
			Returns:   fn.Returns,
			Public:    fn.Public,
		}
		// Reserve parameter slots up front so calls can be generated in any
		// order.
		slots := make([]uint64, len(fn.Params))
		for i := range slots {
			slots[i] = g.alloc()
		}
		g.paramSlots[fn.Name] = slots
	}
	if err := checkNoRecursion(g.funcs); err != nil {
		return nil, err
	}

	g.dispatcher()
	for _, fn := range c.Funcs {
		if err := g.function(fn); err != nil {
			return nil, err
		}
	}
	// Shared revert target for require failures and unknown selectors.
	g.asm.Label("_revert").Op(vm.REVERT)

	code, err := g.asm.Build()
	if err != nil {
		return nil, err
	}
	return &Compiled{Name: c.Name, Code: code, Functions: g.meta, Events: g.events}, nil
}

// alloc reserves one memory slot.
func (g *generator) alloc() uint64 {
	s := g.nextSlot
	g.nextSlot++
	return s
}

// label returns a fresh unique label.
func (g *generator) label(hint string) string {
	g.labelSeq++
	return fmt.Sprintf("%s_%d", hint, g.labelSeq)
}

// checkNoRecursion rejects call cycles: both backends allocate locals
// statically (memory slots on the EVM-style VM, scratch slots on the AVM),
// so re-entering a function would clobber its frame.
func checkNoRecursion(funcs map[string]*Function) error {
	callees := map[string][]string{}
	for name, fn := range funcs {
		seen := map[string]bool{}
		var visitExpr func(e Expr)
		var visitStmts func(ss []Stmt)
		visitExpr = func(e Expr) {
			switch x := e.(type) {
			case *Call:
				if !seen[x.Name] {
					seen[x.Name] = true
					callees[name] = append(callees[name], x.Name)
				}
				for _, a := range x.Args {
					visitExpr(a)
				}
			case *Binary:
				visitExpr(x.L)
				visitExpr(x.R)
			case *Unary:
				visitExpr(x.X)
			case *Index:
				visitExpr(x.Key)
			}
		}
		visitStmts = func(ss []Stmt) {
			for _, s := range ss {
				switch x := s.(type) {
				case *VarDecl:
					visitExpr(x.Init)
				case *Assign:
					if x.Index != nil {
						visitExpr(x.Index)
					}
					visitExpr(x.Value)
				case *If:
					visitExpr(x.Cond)
					visitStmts(x.Then)
					visitStmts(x.Else)
				case *While:
					visitExpr(x.Cond)
					visitStmts(x.Body)
				case *For:
					if x.Init != nil {
						visitStmts([]Stmt{x.Init})
					}
					if x.Cond != nil {
						visitExpr(x.Cond)
					}
					if x.Post != nil {
						visitStmts([]Stmt{x.Post})
					}
					visitStmts(x.Body)
				case *Require:
					visitExpr(x.Cond)
				case *Emit:
					for _, a := range x.Args {
						visitExpr(a)
					}
				case *Return:
					if x.Value != nil {
						visitExpr(x.Value)
					}
				case *ExprStmt:
					visitExpr(x.X)
				}
			}
		}
		visitStmts(fn.Body)
	}
	// DFS cycle detection.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var dfs func(n string) error
	dfs = func(n string) error {
		color[n] = grey
		for _, m := range callees[n] {
			if _, ok := funcs[m]; !ok {
				continue // undefined callee reported during generation
			}
			switch color[m] {
			case grey:
				return compileError(funcs[n].Line, "recursive call cycle through %q is not supported", m)
			case white:
				if err := dfs(m); err != nil {
					return err
				}
			}
		}
		color[n] = black
		return nil
	}
	for name := range funcs {
		if color[name] == white {
			if err := dfs(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// dispatcher emits the entry-point selector switch.
func (g *generator) dispatcher() {
	a := g.asm
	a.Push(0).Op(vm.CALLDATA) // stack: [selector]
	for _, fn := range g.contract.Funcs {
		if !fn.Public {
			continue
		}
		a.Dup(0).Push(g.meta[fn.Name].Selector).Op(vm.EQ)
		a.PushLabel("_ext_" + fn.Name).Op(vm.JUMPI)
	}
	a.PushLabel("_revert").Op(vm.JUMP) // unknown selector

	for _, fn := range g.contract.Funcs {
		if !fn.Public {
			continue
		}
		a.Label("_ext_" + fn.Name)
		a.Op(vm.POP) // drop selector
		for i := range fn.Params {
			// memory[param_slot_i] = calldata[i+1]
			a.Push(g.paramSlots[fn.Name][i])
			a.Push(uint64(i + 1)).Op(vm.CALLDATA)
			a.Op(vm.MSTORE)
		}
		exit := "_extdone_" + fn.Name
		a.PushLabel(exit)
		a.PushLabel("_fn_" + fn.Name).Op(vm.JUMP)
		a.Label(exit)
		if fn.Returns {
			a.Op(vm.RETURN)
		} else {
			a.Op(vm.STOP)
		}
	}
}

// function generates the body of one function. Calling convention: the
// caller pushes a return address and jumps to _fn_<name>; parameters are in
// the function's reserved memory slots; `return` jumps back through the
// return address, leaving the return value (if any) on the stack beneath
// nothing else.
func (g *generator) function(fn *Function) error {
	g.cur = fn
	g.asm.Label("_fn_" + fn.Name)
	sc := &scope{vars: map[string]uint64{}}
	for i, p := range fn.Params {
		if _, dup := sc.vars[p]; dup {
			return compileError(fn.Line, "duplicate parameter %q", p)
		}
		sc.vars[p] = g.paramSlots[fn.Name][i]
	}
	if err := g.stmts(fn.Body, sc); err != nil {
		return err
	}
	// Implicit return at the end of the body.
	if fn.Returns {
		// stack: [retaddr] -> [0, retaddr]
		g.asm.Push(0).Swap(1).Op(vm.JUMP)
	} else {
		g.asm.Op(vm.JUMP)
	}
	return nil
}

func (g *generator) stmts(ss []Stmt, sc *scope) error {
	for _, s := range ss {
		if err := g.stmt(s, sc); err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) stmt(s Stmt, sc *scope) error {
	a := g.asm
	switch x := s.(type) {
	case *VarDecl:
		if _, dup := sc.vars[x.Name]; dup {
			return compileError(x.Line, "variable %q redeclared in this scope", x.Name)
		}
		slot := g.alloc()
		a.Push(slot)
		if err := g.expr(x.Init, sc); err != nil {
			return err
		}
		a.Op(vm.MSTORE)
		sc.vars[x.Name] = slot
		return nil

	case *Assign:
		return g.assign(x, sc)

	case *If:
		elseL, endL := g.label("else"), g.label("endif")
		if err := g.expr(x.Cond, sc); err != nil {
			return err
		}
		a.Op(vm.ISZERO).PushLabel(elseL).Op(vm.JUMPI)
		if err := g.stmts(x.Then, &scope{parent: sc, vars: map[string]uint64{}}); err != nil {
			return err
		}
		a.PushLabel(endL).Op(vm.JUMP)
		a.Label(elseL)
		if err := g.stmts(x.Else, &scope{parent: sc, vars: map[string]uint64{}}); err != nil {
			return err
		}
		a.Label(endL)
		return nil

	case *While:
		startL, endL := g.label("while"), g.label("wend")
		a.Label(startL)
		if err := g.expr(x.Cond, sc); err != nil {
			return err
		}
		a.Op(vm.ISZERO).PushLabel(endL).Op(vm.JUMPI)
		if err := g.stmts(x.Body, &scope{parent: sc, vars: map[string]uint64{}}); err != nil {
			return err
		}
		a.PushLabel(startL).Op(vm.JUMP)
		a.Label(endL)
		return nil

	case *For:
		inner := &scope{parent: sc, vars: map[string]uint64{}}
		if x.Init != nil {
			if err := g.stmt(x.Init, inner); err != nil {
				return err
			}
		}
		startL, endL := g.label("for"), g.label("fend")
		a.Label(startL)
		if x.Cond != nil {
			if err := g.expr(x.Cond, inner); err != nil {
				return err
			}
			a.Op(vm.ISZERO).PushLabel(endL).Op(vm.JUMPI)
		}
		if err := g.stmts(x.Body, &scope{parent: inner, vars: map[string]uint64{}}); err != nil {
			return err
		}
		if x.Post != nil {
			if err := g.stmt(x.Post, inner); err != nil {
				return err
			}
		}
		a.PushLabel(startL).Op(vm.JUMP)
		a.Label(endL)
		return nil

	case *Require:
		if err := g.expr(x.Cond, sc); err != nil {
			return err
		}
		a.Op(vm.ISZERO).PushLabel("_revert").Op(vm.JUMPI)
		return nil

	case *Emit:
		ev, ok := g.events[x.Event]
		if !ok {
			return compileError(x.Line, "undefined event %q", x.Event)
		}
		if len(x.Args) != ev.Arity {
			return compileError(x.Line, "event %q takes %d arguments, got %d", x.Event, ev.Arity, len(x.Args))
		}
		for _, arg := range x.Args {
			if err := g.expr(arg, sc); err != nil {
				return err
			}
		}
		a.Push(ev.ID)
		a.Log(len(x.Args))
		return nil

	case *Return:
		if g.cur.Returns {
			if x.Value == nil {
				return compileError(x.Line, "function %q must return a value", g.cur.Name)
			}
			if err := g.expr(x.Value, sc); err != nil {
				return err
			}
			a.Swap(1).Op(vm.JUMP) // [retaddr, val] -> [val, retaddr] -> jump
		} else {
			if x.Value != nil {
				return compileError(x.Line, "function %q does not return a value", g.cur.Name)
			}
			a.Op(vm.JUMP) // retaddr on top
		}
		return nil

	case *Revert:
		a.Op(vm.REVERT)
		return nil

	case *ExprStmt:
		produces, err := g.exprMaybeVoid(x.X, sc)
		if err != nil {
			return err
		}
		if produces {
			a.Op(vm.POP)
		}
		return nil

	default:
		return fmt.Errorf("minisol: unknown statement %T", s)
	}
}

func (g *generator) assign(x *Assign, sc *scope) error {
	a := g.asm
	// Local variable?
	if slot, ok := sc.lookup(x.Target); ok {
		if x.Index != nil {
			return compileError(x.Line, "%q is not a mapping", x.Target)
		}
		a.Push(slot)
		if x.Op != "=" {
			a.Push(slot).Op(vm.MLOAD)
		}
		if err := g.expr(x.Value, sc); err != nil {
			return err
		}
		switch x.Op {
		case "+=":
			a.Op(vm.ADD)
		case "-=":
			a.Op(vm.SUB)
		}
		a.Op(vm.MSTORE)
		return nil
	}
	sv, ok := g.states[x.Target]
	if !ok {
		return compileError(x.Line, "assignment to undefined variable %q", x.Target)
	}
	if sv.IsMapping != (x.Index != nil) {
		if sv.IsMapping {
			return compileError(x.Line, "mapping %q must be indexed", x.Target)
		}
		return compileError(x.Line, "%q is not a mapping", x.Target)
	}
	if sv.IsMapping {
		// Compute the mapping key once.
		a.Push(sv.Slot)
		if err := g.expr(x.Index, sc); err != nil {
			return err
		}
		a.Op(vm.MAPKEY) // [mk]
		if x.Op != "=" {
			a.Dup(0).Op(vm.SLOAD) // [mk, old]
		}
	} else {
		a.Push(sv.Slot)
		if x.Op != "=" {
			a.Push(sv.Slot).Op(vm.SLOAD)
		}
	}
	if err := g.expr(x.Value, sc); err != nil {
		return err
	}
	switch x.Op {
	case "+=":
		a.Op(vm.ADD)
	case "-=":
		a.Op(vm.SUB)
	}
	a.Op(vm.SSTORE)
	return nil
}

// expr generates code that leaves exactly one value on the stack.
func (g *generator) expr(e Expr, sc *scope) error {
	produces, err := g.exprMaybeVoid(e, sc)
	if err != nil {
		return err
	}
	if !produces {
		call := e.(*Call)
		return compileError(call.Line, "function %q returns no value", call.Name)
	}
	return nil
}

// exprMaybeVoid generates an expression, reporting whether it leaves a
// value on the stack (false only for void function calls).
func (g *generator) exprMaybeVoid(e Expr, sc *scope) (bool, error) {
	a := g.asm
	switch x := e.(type) {
	case *Num:
		a.Push(x.Value)
		return true, nil

	case *Ref:
		if slot, ok := sc.lookup(x.Name); ok {
			a.Push(slot).Op(vm.MLOAD)
			return true, nil
		}
		if sv, ok := g.states[x.Name]; ok {
			if sv.IsMapping {
				return false, compileError(x.Line, "mapping %q must be indexed", x.Name)
			}
			a.Push(sv.Slot).Op(vm.SLOAD)
			return true, nil
		}
		return false, compileError(x.Line, "undefined variable %q", x.Name)

	case *Index:
		sv, ok := g.states[x.Name]
		if !ok {
			return false, compileError(x.Line, "undefined mapping %q", x.Name)
		}
		if !sv.IsMapping {
			return false, compileError(x.Line, "%q is not a mapping", x.Name)
		}
		a.Push(sv.Slot)
		if err := g.expr(x.Key, sc); err != nil {
			return false, err
		}
		a.Op(vm.MAPKEY).Op(vm.SLOAD)
		return true, nil

	case *Env:
		switch x.Name {
		case "msg.sender":
			a.Op(vm.CALLER)
		case "msg.value":
			a.Op(vm.CALLVALUE)
		case "block.number":
			a.Op(vm.NUMBER)
		case "block.timestamp":
			a.Op(vm.TIMESTAMP)
		}
		return true, nil

	case *Unary:
		if x.Op == "-" {
			a.Push(0)
			if err := g.expr(x.X, sc); err != nil {
				return false, err
			}
			a.Op(vm.SUB)
			return true, nil
		}
		if err := g.expr(x.X, sc); err != nil {
			return false, err
		}
		a.Op(vm.ISZERO)
		return true, nil

	case *Binary:
		if err := g.expr(x.L, sc); err != nil {
			return false, err
		}
		if x.Op == "&&" || x.Op == "||" {
			// Booleanize the left operand.
			a.Op(vm.ISZERO).Op(vm.ISZERO)
		}
		if err := g.expr(x.R, sc); err != nil {
			return false, err
		}
		switch x.Op {
		case "+":
			a.Op(vm.ADD)
		case "-":
			a.Op(vm.SUB)
		case "*":
			a.Op(vm.MUL)
		case "/":
			a.Op(vm.DIV)
		case "%":
			a.Op(vm.MOD)
		case "<":
			a.Op(vm.LT)
		case ">":
			a.Op(vm.GT)
		case "<=":
			a.Op(vm.GT).Op(vm.ISZERO)
		case ">=":
			a.Op(vm.LT).Op(vm.ISZERO)
		case "==":
			a.Op(vm.EQ)
		case "!=":
			a.Op(vm.EQ).Op(vm.ISZERO)
		case "&&":
			a.Op(vm.ISZERO).Op(vm.ISZERO).Op(vm.AND)
		case "||":
			a.Op(vm.ISZERO).Op(vm.ISZERO).Op(vm.OR)
		default:
			return false, compileError(x.Line, "unknown operator %q", x.Op)
		}
		return true, nil

	case *Call:
		callee, ok := g.funcs[x.Name]
		if !ok {
			return false, compileError(x.Line, "undefined function %q", x.Name)
		}
		if len(x.Args) != len(callee.Params) {
			return false, compileError(x.Line, "function %q takes %d arguments, got %d",
				x.Name, len(callee.Params), len(x.Args))
		}
		// Evaluate all arguments first (they may call other functions),
		// then pop them into the callee's parameter slots in reverse.
		for _, arg := range x.Args {
			if err := g.expr(arg, sc); err != nil {
				return false, err
			}
		}
		slots := g.paramSlots[x.Name]
		for i := len(slots) - 1; i >= 0; i-- {
			a.Push(slots[i]).Swap(1).Op(vm.MSTORE)
		}
		ret := g.label("ret")
		a.PushLabel(ret)
		a.PushLabel("_fn_" + x.Name).Op(vm.JUMP)
		a.Label(ret)
		return callee.Returns, nil

	default:
		return false, fmt.Errorf("minisol: unknown expression %T", e)
	}
}
