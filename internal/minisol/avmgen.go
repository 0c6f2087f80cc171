package minisol

import (
	"fmt"

	"diablo/internal/avm"
)

// GenerateAVM is the second code generator: it compiles a parsed MiniSol
// contract to the TEAL-style AVM instruction set — the same way the
// paper's authors had to reimplement every DApp in PyTeal for Algorand.
// The backends differ exactly where the real VMs differ:
//
//   - locals live in scratch slots, internal functions are callsub/retsub
//     subroutines, control flow is relative branches;
//   - contract state is a flat key-value store: scalar variables key by
//     declaration slot, mapping elements by an arithmetic key mix;
//   - require compiles to assert-style branching and revert to logic
//     rejection;
//   - msg.value does not exist (application calls carry no payment), so
//     contracts using it do not compile for the AVM — the same class of
//     language limitation the paper hit with floating point and sqrt.
//
// Division and modulo keep MiniSol's EVM-style x/0 = 0 semantics by
// guarding the divisor, since the AVM errors on division by zero.

// AVMCompiled is the AVM build artifact.
type AVMCompiled struct {
	Name    string
	Program []byte
	// Decoded is Program decoded once for avm.Machine.Run; it is immutable
	// and shared by every application deployed from this artifact.
	Decoded   *avm.Program
	Functions map[string]*FuncMeta
	Events    map[string]*EventDecl
}

// RetValueEventID tags the synthetic log entry carrying a function's
// return value (AVM programs report results through logs).
const RetValueEventID = uint64(1)<<63 | 1

// Call validates a call of fn with nargs arguments and returns the
// function's metadata (its selector is application argument 0).
func (c *AVMCompiled) Call(fn string, nargs int) (*FuncMeta, error) {
	return resolveCall(c.Name, c.Functions, fn, nargs)
}

// AppArgs builds the application arguments to invoke a function.
func (c *AVMCompiled) AppArgs(fn string, args ...uint64) ([]uint64, error) {
	meta, err := c.Call(fn, len(args))
	if err != nil {
		return nil, err
	}
	out := make([]uint64, 0, 1+len(args))
	out = append(out, meta.Selector)
	return append(out, args...), nil
}

// CompileAVM parses and compiles MiniSol source for the AVM.
func CompileAVM(src string) (*AVMCompiled, error) {
	contract, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return GenerateAVM(contract)
}

// stateKeyMix mixes a mapping's declaration slot with an element key; the
// generated code computes the same expression with AVM arithmetic.
const stateKeyMix = 0x9E3779B97F4A7C15

// avmGenerator holds AVM code generation state.
type avmGenerator struct {
	contract *Contract
	asm      *avm.Assembler
	states   map[string]*StateVar
	events   map[string]*EventDecl
	funcs    map[string]*Function
	meta     map[string]*FuncMeta

	paramSlots map[string][]uint8
	nextSlot   int
	labelSeq   int
	cur        *Function
}

// GenerateAVM compiles a parsed contract to an AVM program.
func GenerateAVM(c *Contract) (*AVMCompiled, error) {
	g := &avmGenerator{
		contract:   c,
		asm:        avm.NewAssembler(),
		states:     map[string]*StateVar{},
		events:     map[string]*EventDecl{},
		funcs:      map[string]*Function{},
		meta:       map[string]*FuncMeta{},
		paramSlots: map[string][]uint8{},
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
		g.funcs[fn.Name] = fn
		g.meta[fn.Name] = &FuncMeta{
			Name:      fn.Name,
			Selector:  Selector(fn.Name, len(fn.Params)),
			NumParams: len(fn.Params),
			Returns:   fn.Returns,
			Public:    fn.Public,
		}
		slots := make([]uint8, len(fn.Params))
		for i := range slots {
			s, err := g.alloc(fn.Line)
			if err != nil {
				return nil, err
			}
			slots[i] = s
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

	program, err := g.asm.Build()
	if err != nil {
		return nil, err
	}
	return &AVMCompiled{
		Name: c.Name, Program: program, Decoded: avm.Decode(program), Functions: g.meta, Events: g.events,
	}, nil
}

// alloc reserves one scratch slot (the AVM has 256).
func (g *avmGenerator) alloc(line int) (uint8, error) {
	if g.nextSlot >= 256 {
		return 0, compileError(line, "contract needs more than the AVM's 256 scratch slots")
	}
	s := uint8(g.nextSlot)
	g.nextSlot++
	return s, nil
}

func (g *avmGenerator) label(hint string) string {
	g.labelSeq++
	return fmt.Sprintf("%s_%d", hint, g.labelSeq)
}

// dispatcher emits the application entry point: switch on the selector in
// application argument 0, bind parameters to scratch slots, call the
// subroutine, publish the return value as a log, approve.
func (g *avmGenerator) dispatcher() {
	a := g.asm
	a.PushInt(0).Op(avm.OpTxnArg) // selector
	for _, fn := range g.contract.Funcs {
		if !fn.Public {
			continue
		}
		a.Op(avm.OpDup).PushInt(g.meta[fn.Name].Selector).Op(avm.OpEq)
		a.Branch(avm.OpBNZ, "_ext_"+fn.Name)
	}
	a.Op(avm.OpErr) // unknown method

	for _, fn := range g.contract.Funcs {
		if !fn.Public {
			continue
		}
		a.Label("_ext_" + fn.Name)
		a.Op(avm.OpPop) // drop selector copy
		for i := range fn.Params {
			a.PushInt(uint64(i + 1)).Op(avm.OpTxnArg)
			a.Store(g.paramSlots[fn.Name][i])
		}
		a.Branch(avm.OpCallSub, "_fn_"+fn.Name)
		if fn.Returns {
			// Publish the result: stack [val] -> log(ret, val).
			a.PushInt(RetValueEventID)
			a.Log(1)
		}
		a.PushInt(1).Op(avm.OpReturn) // approve
	}
}

// function emits one subroutine.
func (g *avmGenerator) function(fn *Function) error {
	g.cur = fn
	g.asm.Label("_fn_" + fn.Name)
	sc := &scope{vars: map[string]uint64{}}
	for i, p := range fn.Params {
		if _, dup := sc.vars[p]; dup {
			return compileError(fn.Line, "duplicate parameter %q", p)
		}
		sc.vars[p] = uint64(g.paramSlots[fn.Name][i])
	}
	if err := g.stmts(fn.Body, sc); err != nil {
		return err
	}
	if fn.Returns {
		g.asm.PushInt(0)
	}
	g.asm.Op(avm.OpRetSub)
	return nil
}

func (g *avmGenerator) stmts(ss []Stmt, sc *scope) error {
	for _, s := range ss {
		if err := g.stmt(s, sc); err != nil {
			return err
		}
	}
	return nil
}

func (g *avmGenerator) stmt(s Stmt, sc *scope) error {
	a := g.asm
	switch x := s.(type) {
	case *VarDecl:
		if _, dup := sc.vars[x.Name]; dup {
			return compileError(x.Line, "variable %q redeclared in this scope", x.Name)
		}
		slot, err := g.alloc(x.Line)
		if err != nil {
			return err
		}
		if err := g.expr(x.Init, sc); err != nil {
			return err
		}
		a.Store(slot)
		sc.vars[x.Name] = uint64(slot)
		return nil

	case *Assign:
		return g.assign(x, sc)

	case *If:
		elseL, endL := g.label("else"), g.label("endif")
		if err := g.expr(x.Cond, sc); err != nil {
			return err
		}
		a.Branch(avm.OpBZ, elseL)
		if err := g.stmts(x.Then, &scope{parent: sc, vars: map[string]uint64{}}); err != nil {
			return err
		}
		a.Branch(avm.OpBranch, endL)
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
		a.Branch(avm.OpBZ, endL)
		if err := g.stmts(x.Body, &scope{parent: sc, vars: map[string]uint64{}}); err != nil {
			return err
		}
		a.Branch(avm.OpBranch, startL)
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
			a.Branch(avm.OpBZ, endL)
		}
		if err := g.stmts(x.Body, &scope{parent: inner, vars: map[string]uint64{}}); err != nil {
			return err
		}
		if x.Post != nil {
			if err := g.stmt(x.Post, inner); err != nil {
				return err
			}
		}
		a.Branch(avm.OpBranch, startL)
		a.Label(endL)
		return nil

	case *Require:
		okL := g.label("assert")
		if err := g.expr(x.Cond, sc); err != nil {
			return err
		}
		a.Branch(avm.OpBNZ, okL)
		// Rejection rolls state back, like revert; TEAL's assert errors.
		a.PushInt(0).Op(avm.OpReturn)
		a.Label(okL)
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
		a.PushInt(ev.ID)
		a.Log(uint8(len(x.Args)))
		return nil

	case *Return:
		if g.cur.Returns {
			if x.Value == nil {
				return compileError(x.Line, "function %q must return a value", g.cur.Name)
			}
			if err := g.expr(x.Value, sc); err != nil {
				return err
			}
		} else if x.Value != nil {
			return compileError(x.Line, "function %q does not return a value", g.cur.Name)
		}
		a.Op(avm.OpRetSub)
		return nil

	case *Revert:
		a.PushInt(0).Op(avm.OpReturn)
		return nil

	case *ExprStmt:
		produces, err := g.exprMaybeVoid(x.X, sc)
		if err != nil {
			return err
		}
		if produces {
			a.Op(avm.OpPop)
		}
		return nil

	default:
		return fmt.Errorf("minisol: unknown statement %T", s)
	}
}

// pushStateKey emits code computing a scalar variable's state key.
func (g *avmGenerator) pushScalarKey(sv *StateVar) {
	g.asm.PushInt(sv.Slot)
}

// pushMapKey emits code computing mapping[key]'s state key:
// (slot+1)*mix + key.
func (g *avmGenerator) pushMapKey(sv *StateVar, key Expr, sc *scope) error {
	g.asm.PushInt((sv.Slot + 1)).PushInt(stateKeyMix).Op(avm.OpMul)
	if err := g.expr(key, sc); err != nil {
		return err
	}
	g.asm.Op(avm.OpPlus)
	return nil
}

func (g *avmGenerator) assign(x *Assign, sc *scope) error {
	a := g.asm
	if slot, ok := sc.lookup(x.Target); ok {
		if x.Index != nil {
			return compileError(x.Line, "%q is not a mapping", x.Target)
		}
		if x.Op != "=" {
			a.Load(uint8(slot))
		}
		if err := g.expr(x.Value, sc); err != nil {
			return err
		}
		switch x.Op {
		case "+=":
			a.Op(avm.OpPlus)
		case "-=":
			a.Op(avm.OpMinus)
		}
		a.Store(uint8(slot))
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
	// Compute the key, then the value: app_global_put pops value, key.
	if sv.IsMapping {
		if err := g.pushMapKey(sv, x.Index, sc); err != nil {
			return err
		}
	} else {
		g.pushScalarKey(sv)
	}
	if x.Op != "=" {
		// key on stack; need key old value: dup key then get.
		a.Op(avm.OpDup).Op(avm.OpAppGlobalGet)
		if err := g.expr(x.Value, sc); err != nil {
			return err
		}
		switch x.Op {
		case "+=":
			a.Op(avm.OpPlus)
		case "-=":
			a.Op(avm.OpMinus)
		}
	} else {
		if err := g.expr(x.Value, sc); err != nil {
			return err
		}
	}
	a.Op(avm.OpAppGlobalPut)
	return nil
}

func (g *avmGenerator) expr(e Expr, sc *scope) error {
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

func (g *avmGenerator) exprMaybeVoid(e Expr, sc *scope) (bool, error) {
	a := g.asm
	switch x := e.(type) {
	case *Num:
		a.PushInt(x.Value)
		return true, nil

	case *Ref:
		if slot, ok := sc.lookup(x.Name); ok {
			a.Load(uint8(slot))
			return true, nil
		}
		if sv, ok := g.states[x.Name]; ok {
			if sv.IsMapping {
				return false, compileError(x.Line, "mapping %q must be indexed", x.Name)
			}
			g.pushScalarKey(sv)
			a.Op(avm.OpAppGlobalGet)
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
		if err := g.pushMapKey(sv, x.Key, sc); err != nil {
			return false, err
		}
		a.Op(avm.OpAppGlobalGet)
		return true, nil

	case *Env:
		switch x.Name {
		case "msg.sender":
			a.Op(avm.OpTxnSender)
		case "msg.value":
			// Application calls carry no payment on the AVM; the paper hit
			// the same class of per-language limitation (no floats, no
			// sqrt) when porting DApps to PyTeal.
			return false, compileError(x.Line, "msg.value is not supported on the AVM")
		case "block.number":
			a.Op(avm.OpGlobalRound)
		case "block.timestamp":
			a.Op(avm.OpGlobalTime)
		}
		return true, nil

	case *Unary:
		if x.Op == "-" {
			a.PushInt(0)
			if err := g.expr(x.X, sc); err != nil {
				return false, err
			}
			a.Op(avm.OpMinus)
			return true, nil
		}
		if err := g.expr(x.X, sc); err != nil {
			return false, err
		}
		a.Op(avm.OpNot)
		return true, nil

	case *Binary:
		if err := g.expr(x.L, sc); err != nil {
			return false, err
		}
		if err := g.expr(x.R, sc); err != nil {
			return false, err
		}
		switch x.Op {
		case "+":
			a.Op(avm.OpPlus)
		case "-":
			a.Op(avm.OpMinus)
		case "*":
			a.Op(avm.OpMul)
		case "/", "%":
			// Preserve MiniSol's EVM semantics (x/0 = 0): the AVM errors
			// on division by zero, so guard the divisor.
			zeroL, endL := g.label("div0"), g.label("divend")
			a.Op(avm.OpDup).Branch(avm.OpBZ, zeroL)
			if x.Op == "/" {
				a.Op(avm.OpDiv)
			} else {
				a.Op(avm.OpMod)
			}
			a.Branch(avm.OpBranch, endL)
			a.Label(zeroL)
			a.Op(avm.OpPop).Op(avm.OpPop).PushInt(0)
			a.Label(endL)
		case "<":
			a.Op(avm.OpLt)
		case ">":
			a.Op(avm.OpGt)
		case "<=":
			a.Op(avm.OpLe)
		case ">=":
			a.Op(avm.OpGe)
		case "==":
			a.Op(avm.OpEq)
		case "!=":
			a.Op(avm.OpNeq)
		case "&&":
			a.Op(avm.OpAnd)
		case "||":
			a.Op(avm.OpOr)
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
		for _, arg := range x.Args {
			if err := g.expr(arg, sc); err != nil {
				return false, err
			}
		}
		slots := g.paramSlots[x.Name]
		for i := len(slots) - 1; i >= 0; i-- {
			a.Store(slots[i])
		}
		a.Branch(avm.OpCallSub, "_fn_"+x.Name)
		return callee.Returns, nil

	default:
		return false, fmt.Errorf("minisol: unknown expression %T", e)
	}
}
