package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one determinism violation.
type Finding struct {
	Pos     token.Position `json:"pos"`
	Check   string         `json:"check"`
	Message string         `json:"message"`
	Hint    string         `json:"hint,omitempty"`
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s: %s", f.Pos, f.Check, f.Message)
	if f.Hint != "" {
		s += " (" + f.Hint + ")"
	}
	return s
}

// Suppression is one //lint:allow comment, kept as an audit trail.
type Suppression struct {
	Pos    token.Position `json:"pos"`
	Check  string         `json:"check"`
	Reason string         `json:"reason"`
	File   bool           `json:"file_scoped"` // //lint:allowfile
	Used   bool           `json:"used"`
}

// Config selects checks and classifies packages.
type Config struct {
	// Deterministic lists import-path prefixes of the sim-time packages
	// whose purity the linter enforces. Empty uses the module defaults
	// (DefaultDeterministic).
	Deterministic []string
	// Checks enables a subset of analyzers by name; empty enables all.
	Checks []string
}

// DefaultDeterministic is the sim-time package set of this reproduction:
// every package whose code runs inside (or is entered from) the
// deterministic event loop. Packages outside the set — the wall-clock
// measuring layers (internal/bench, benchmark/), report rendering, CLIs —
// are still covered by the wallclock analyzer's call-graph reachability,
// just not held to the single-goroutine contract.
func DefaultDeterministic(modPath string) []string {
	return []string{
		modPath + "/internal/sim",
		modPath + "/internal/simnet",
		modPath + "/internal/chains",
		modPath + "/internal/consensus",
		modPath + "/internal/chaos",
		modPath + "/internal/adversary",
		modPath + "/internal/invariant",
		modPath + "/internal/mempool",
		modPath + "/internal/snapshot",
		modPath + "/internal/core",
		modPath + "/internal/pexec",
		modPath + "/internal/span",
		modPath + "/internal/stream",
	}
}

// analyzer is one determinism check.
type analyzer struct {
	name string
	doc  string
	run  func(*pass) []Finding
}

// pass bundles what every analyzer sees.
type pass struct {
	mod  *Module
	pkgs []*Package
	det  func(path string) bool
	sum  *Summaries // lazily built interprocedural summaries
}

// analyzers in reporting order. badallow is not listed: it is emitted by
// the suppression parser itself.
var analyzers = []*analyzer{
	{name: "wallclock", doc: "wall-clock time reached from sim-time code", run: runWallclock},
	{name: "globalrand", doc: "global math/rand state in deterministic packages", run: runGlobalRand},
	{name: "maprange", doc: "map iteration order leaking into ordered output", run: runMapRange},
	{name: "concurrency", doc: "goroutines, channels or sync in deterministic packages", run: runConcurrency},
	{name: "snapshotpair", doc: "SnapshotState without a mirrored RestoreState", run: runSnapshotPair},
	{name: "float", doc: "floating-point arithmetic on digest/snapshot/ordering paths", run: runFloat},
	{name: "snapshotdrift", doc: "mutable fields never read by SnapshotState", run: runSnapshotDrift},
	{name: "observerpure", doc: "observer-only code writing simulation state", run: runObserverPure},
	{name: "hotalloc", doc: "heap allocation inside //perf:noalloc functions", run: runHotalloc},
}

// CheckNames lists every analyzer name, plus badallow.
func CheckNames() []string {
	names := make([]string, 0, len(analyzers)+1)
	for _, a := range analyzers {
		names = append(names, a.name)
	}
	return append(names, "badallow")
}

func knownCheck(name string) bool {
	for _, a := range analyzers {
		if a.name == name {
			return true
		}
	}
	return false
}

// Report is the outcome of a lint run.
type Report struct {
	// Findings are the unsuppressed violations, sorted by position.
	Findings []Finding
	// Suppressed are violations silenced by a //lint:allow comment.
	Suppressed []Finding
	// Allows is the suppression audit trail, sorted by position.
	Allows []*Suppression
}

// fileAllows indexes the suppressions of one file.
type fileAllows struct {
	byLine map[int][]*Suppression // line of the comment
	scoped []*Suppression         // //lint:allowfile
}

// parseAllows scans every comment of every file for //lint:allow and
// //lint:allowfile directives:
//
//	//lint:allow <check> <reason>      suppresses findings of <check> on
//	                                   the same line or the line below
//	//lint:allowfile <check> <reason>  suppresses findings of <check> in
//	                                   the whole file
//
// A directive missing its reason, or naming an unknown check, is itself a
// finding (check badallow): silent or unexplained suppressions defeat the
// audit trail.
func parseAllows(fset *token.FileSet, pkgs []*Package) (map[string]*fileAllows, []*Suppression, []Finding) {
	perFile := map[string]*fileAllows{}
	var all []*Suppression
	var bad []Finding
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, fileScoped := "", false
					if rest, ok := strings.CutPrefix(c.Text, "//lint:allowfile"); ok {
						text, fileScoped = rest, true
					} else if rest, ok := strings.CutPrefix(c.Text, "//lint:allow"); ok {
						text = rest
					} else {
						continue
					}
					pos := fset.Position(c.Pos())
					fields := strings.Fields(text)
					if len(fields) == 0 || !knownCheck(fields[0]) {
						bad = append(bad, Finding{
							Pos: pos, Check: "badallow",
							Message: fmt.Sprintf("suppression names no known check (have %s)", strings.Join(CheckNames(), ", ")),
						})
						continue
					}
					if len(fields) < 2 {
						bad = append(bad, Finding{
							Pos: pos, Check: "badallow",
							Message: fmt.Sprintf("suppression of %q gives no reason; the audit trail needs one", fields[0]),
						})
						continue
					}
					s := &Suppression{
						Pos:    pos,
						Check:  fields[0],
						Reason: strings.Join(fields[1:], " "),
						File:   fileScoped,
					}
					fa := perFile[pos.Filename]
					if fa == nil {
						fa = &fileAllows{byLine: map[int][]*Suppression{}}
						perFile[pos.Filename] = fa
					}
					if fileScoped {
						fa.scoped = append(fa.scoped, s)
					} else {
						fa.byLine[pos.Line] = append(fa.byLine[pos.Line], s)
					}
					all = append(all, s)
				}
			}
		}
	}
	return perFile, all, bad
}

// suppressed reports whether a finding is silenced, marking the matching
// suppression used.
func suppressed(perFile map[string]*fileAllows, f Finding) bool {
	fa := perFile[f.Pos.Filename]
	if fa == nil {
		return false
	}
	for _, s := range fa.scoped {
		if s.Check == f.Check {
			s.Used = true
			return true
		}
	}
	// A line directive covers its own line (trailing comment) and the
	// line below (comment-above style).
	for _, line := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		for _, s := range fa.byLine[line] {
			if s.Check == f.Check {
				s.Used = true
				return true
			}
		}
	}
	return false
}

// Run executes the configured analyzers over pkgs (normally mod.Packages;
// tests pass fixture packages) and applies suppressions.
func Run(mod *Module, pkgs []*Package, cfg Config) *Report {
	det := cfg.Deterministic
	if len(det) == 0 {
		det = DefaultDeterministic(mod.Path)
	}
	isDet := func(path string) bool {
		for _, p := range det {
			if path == p || strings.HasPrefix(path, p+"/") {
				return true
			}
		}
		return false
	}
	enabled := func(name string) bool {
		if len(cfg.Checks) == 0 {
			return true
		}
		for _, c := range cfg.Checks {
			if c == name {
				return true
			}
		}
		return false
	}

	p := &pass{mod: mod, pkgs: pkgs, det: isDet}
	perFile, allows, bad := parseAllows(mod.Fset, pkgs)

	rep := &Report{Allows: allows}
	var raw []Finding
	raw = append(raw, bad...) // badallow findings are never suppressible
	for _, a := range analyzers {
		if !enabled(a.name) {
			continue
		}
		for _, f := range a.run(p) {
			if suppressed(perFile, f) {
				rep.Suppressed = append(rep.Suppressed, f)
			} else {
				raw = append(raw, f)
			}
		}
	}
	sortFindings(raw)
	sortFindings(rep.Suppressed)
	sort.Slice(rep.Allows, func(i, j int) bool { return posLess(rep.Allows[i].Pos, rep.Allows[j].Pos) })
	rep.Findings = raw
	return rep
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Pos != fs[j].Pos {
			return posLess(fs[i].Pos, fs[j].Pos)
		}
		return fs[i].Check < fs[j].Check
	})
}

// funcFor resolves a called expression to its static *types.Func, or nil
// when the callee is dynamic (a func value, a method value, a conversion).
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// pkgPathOf returns the declaring package path of an object ("" for
// builtins and universe objects).
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// recvNamed returns the receiver's named type (through pointers) of a
// method, or nil for plain functions.
func recvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
