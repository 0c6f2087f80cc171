package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The interprocedural layer: one summary per declared function, computed
// in a single AST walk over the type-checked module, then propagated
// along the PR 5 static call graph. Summaries record what a function
// does — which module functions it calls, which wall-clock and
// floating-point operations it performs, which scheduler/digest sinks it
// feeds, which struct fields and package variables it writes or reads,
// and which snapshot codec labels it encodes — so analyzers answer
// reachability questions ("can a digest path reach this float multiply?",
// "is this helper only ever entered from an observability hook?") without
// re-walking bodies. Calls through function values and interface methods
// have no static target and contribute no edge: like every analyzer here,
// the propagation under-approximates, so each report is real.

// Site is one position of interest inside a function body, with a short
// description of what happens there ("time.Now", "float64 * float64").
type Site struct {
	Pos  token.Pos
	What string
}

// FieldKey identifies a struct field of a named type, or (with Type == "")
// a package-level variable.
type FieldKey struct {
	Pkg   string // declaring package import path
	Type  string // receiver's named type; "" for a package-level var
	Field string // field or variable name
}

// WriteSite is one assignment (or ++/--) whose left-hand side resolves to
// a field or package variable.
type WriteSite struct {
	Key FieldKey
	Pos token.Pos
}

// FuncSummary is the per-function fact base.
type FuncSummary struct {
	Fn   *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl

	// Calls are the statically resolvable callees declared in this module,
	// in body order. Nested function literals are attributed to the
	// enclosing declaration.
	Calls []*types.Func
	// Wallclock lists calls into package time that read the wall clock or
	// arm real timers.
	Wallclock []Site
	// FloatOps lists floating-point arithmetic: non-constant +, -, *, /
	// with a floating operand, and calls to inexact math functions.
	// Conversions, comparisons and unary minus are exactly rounded on
	// every IEEE platform and are not recorded.
	FloatOps []Site
	// Schedules lists event insertions into a sim.Scheduler (the At/After
	// family and Every) — the event-ordering sinks.
	Schedules []Site
	// Digests lists calls feeding the checkpoint codec: methods on
	// snapshot.Encoder, Decoder or Hash, and snapshot.Reconcile — the
	// digest/snapshot sinks.
	Digests []Site
	// Writes lists field and package-variable stores, including stores
	// through an index or dereference of a field (s.slab[i].at = t records
	// writes to both slab and at).
	Writes []WriteSite
	// Reads lists every field selection, read or write side; snapshotdrift
	// uses it to decide which fields a capture path covers.
	Reads []FieldKey
}

// Summaries indexes every declared function of the analyzed packages.
type Summaries struct {
	ByFn map[*types.Func]*FuncSummary
	// Funcs is ByFn's key set in deterministic (FullName) order; analyzers
	// iterate it instead of the map so reports are stable.
	Funcs []*types.Func
}

// summaries builds (once per pass) the summary set for the pass's
// packages.
func (p *pass) summaries() *Summaries {
	if p.sum == nil {
		p.sum = buildSummaries(p)
	}
	return p.sum
}

func buildSummaries(p *pass) *Summaries {
	s := &Summaries{ByFn: map[*types.Func]*FuncSummary{}}
	modulePkgs := map[string]bool{}
	for _, pkg := range p.pkgs {
		modulePkgs[pkg.Path] = true
	}
	// Sinks are identified by their declaring package inside the module
	// under analysis (fixture packages import the real ones).
	simPath := p.mod.Path + "/internal/sim"
	snapPath := p.mod.Path + "/internal/snapshot"

	for _, pkg := range p.pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				sum := &FuncSummary{Fn: fn, Pkg: pkg, Decl: fd}
				summarizeBody(sum, pkg, fd.Body, modulePkgs, simPath, snapPath)
				s.ByFn[fn] = sum
				s.Funcs = append(s.Funcs, fn)
			}
		}
	}
	sort.Slice(s.Funcs, func(i, j int) bool {
		return s.Funcs[i].FullName() < s.Funcs[j].FullName()
	})
	return s
}

// summarizeBody fills sum from one function body.
func summarizeBody(sum *FuncSummary, pkg *Package, body *ast.BlockStmt, modulePkgs map[string]bool, simPath, snapPath string) {
	info := pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			summarizeCall(sum, pkg, n, modulePkgs, simPath, snapPath)
		case *ast.BinaryExpr:
			if site, ok := floatOp(info, n); ok {
				sum.FloatOps = append(sum.FloatOps, site)
			}
		case *ast.SelectorExpr:
			if key, ok := fieldKeyOf(info, n); ok {
				sum.Reads = append(sum.Reads, key)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				sum.Writes = append(sum.Writes, writeTargets(info, lhs)...)
			}
		case *ast.IncDecStmt:
			sum.Writes = append(sum.Writes, writeTargets(info, n.X)...)
		}
		return true
	})
}

// summarizeCall classifies one call expression into the summary's sink
// lists.
func summarizeCall(sum *FuncSummary, pkg *Package, call *ast.CallExpr, modulePkgs map[string]bool, simPath, snapPath string) {
	callee := funcFor(pkg.Info, call)
	if callee == nil {
		return
	}
	path := pkgPathOf(callee)
	switch {
	case path == "time" && wallclockFuncs[callee.Name()]:
		sum.Wallclock = append(sum.Wallclock, Site{Pos: call.Pos(), What: "time." + callee.Name()})
	case path == "math" && inexactMathFunc(callee):
		sum.FloatOps = append(sum.FloatOps, Site{Pos: call.Pos(), What: "math." + callee.Name()})
	case path == snapPath && callee.Name() == "Reconcile":
		sum.Digests = append(sum.Digests, Site{Pos: call.Pos(), What: "snapshot.Reconcile"})
	}
	if named := recvNamed(callee); named != nil {
		recvPkg := pkgPathOf(named.Obj())
		switch {
		case recvPkg == simPath && named.Obj().Name() == "Scheduler" && schedMethods[callee.Name()]:
			sum.Schedules = append(sum.Schedules, Site{Pos: call.Pos(), What: "Scheduler." + callee.Name()})
		case recvPkg == snapPath && snapCodecType(named.Obj().Name()):
			sum.Digests = append(sum.Digests, Site{Pos: call.Pos(), What: "snapshot." + named.Obj().Name() + "." + callee.Name()})
		}
	}
	if modulePkgs[path] {
		sum.Calls = append(sum.Calls, callee)
	}
}

func snapCodecType(name string) bool {
	return name == "Encoder" || name == "Decoder" || name == "Hash"
}

// exactMathFuncs are the package math functions whose results IEEE 754
// (and the Go spec) pin to the bit: calling them cannot diverge between
// platforms. Everything else in package math — transcendentals, powers,
// logarithms — is only faithfully rounded and may differ.
var exactMathFuncs = map[string]bool{
	"Abs": true, "Ceil": true, "Floor": true, "Trunc": true,
	"Round": true, "RoundToEven": true, "Sqrt": true, "Copysign": true,
	"Signbit": true, "Inf": true, "NaN": true, "IsNaN": true, "IsInf": true,
	"Min": true, "Max": true, "Dim": true, "Mod": true, "Remainder": true,
	"Float64bits": true, "Float64frombits": true,
	"Float32bits": true, "Float32frombits": true,
	"MaxInt": true, "MinInt": true,
}

func inexactMathFunc(fn *types.Func) bool {
	if exactMathFuncs[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	return isFloat(sig.Results().At(0).Type())
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// floatOp reports whether a binary expression is non-constant
// floating-point arithmetic. Comparisons are exact and skipped; constant
// expressions are folded exactly by the compiler and skipped.
func floatOp(info *types.Info, be *ast.BinaryExpr) (Site, bool) {
	switch be.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return Site{}, false
	}
	tv, ok := info.Types[be]
	if !ok || tv.Value != nil || !isFloat(tv.Type) {
		return Site{}, false
	}
	return Site{Pos: be.OpPos, What: "float " + be.Op.String()}, true
}

// fieldKeyOf resolves a selector to the struct field it names, keyed by
// the receiver's named type, or to a package-level variable of another
// package. Selections of methods, imported functions, and locals resolve
// to nothing.
func fieldKeyOf(info *types.Info, sel *ast.SelectorExpr) (FieldKey, bool) {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		t := s.Recv()
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return FieldKey{}, false
		}
		return FieldKey{Pkg: pkgPathOf(named.Obj()), Type: named.Obj().Name(), Field: s.Obj().Name()}, true
	}
	// pkg.Var selection: the Sel resolves to a package-scope variable.
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return FieldKey{Pkg: v.Pkg().Path(), Field: v.Name()}, true
	}
	return FieldKey{}, false
}

// writeTargets resolves one assignable expression to the fields and
// package variables it stores into. Index expressions, dereferences and
// nested selectors all count: `s.slab[i].at = t` mutates both slab and
// at, and a drift or purity analyzer must see both.
func writeTargets(info *types.Info, expr ast.Expr) []WriteSite {
	var out []WriteSite
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			if v, ok := objectOf(info, e).(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				out = append(out, WriteSite{Key: FieldKey{Pkg: v.Pkg().Path(), Field: v.Name()}, Pos: e.Pos()})
			}
			return out
		case *ast.SelectorExpr:
			if key, ok := fieldKeyOf(info, e); ok {
				out = append(out, WriteSite{Key: key, Pos: e.Sel.Pos()})
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return out
		}
	}
}

// Reach floods forward from roots along static call edges, returning for
// every reached function the root that first reached it (roots map to
// themselves). Roots are visited in sorted order first, so the witness
// for a shared callee is deterministic. When enter is non-nil, edges into
// functions for which enter reports false are not followed (and such
// functions are not seeded even if listed as roots).
func (s *Summaries) Reach(roots []*types.Func, enter func(*types.Func) bool) map[*types.Func]*types.Func {
	sorted := append([]*types.Func(nil), roots...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].FullName() < sorted[j].FullName() })

	rootOf := map[*types.Func]*types.Func{}
	var queue []*types.Func
	for _, fn := range sorted {
		if _, seen := rootOf[fn]; seen || (enter != nil && !enter(fn)) {
			continue
		}
		rootOf[fn] = fn
		queue = append(queue, fn)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		sum := s.ByFn[fn]
		if sum == nil {
			continue
		}
		for _, callee := range sum.Calls {
			if _, seen := rootOf[callee]; seen {
				continue
			}
			if enter != nil && !enter(callee) {
				continue
			}
			rootOf[callee] = rootOf[fn]
			queue = append(queue, callee)
		}
	}
	return rootOf
}
