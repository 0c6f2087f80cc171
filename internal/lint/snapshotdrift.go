package lint

import (
	"fmt"
	"go/types"
	"strings"
)

// runSnapshotDrift closes the hole Reconcile cannot see: a struct field
// that was never encoded can never be flagged as divergent at restore
// time, so a new mutable field silently drops out of the checkpoint
// protocol the day it is added. For every type with a SnapshotState
// capture method, the analyzer diffs the type's mutable fields against
// the state the capture path actually touches and reports each field that
// is mutated somewhere in the module but never read while capturing.
//
// "Covered" is interprocedural: a field counts as captured when
// SnapshotState, or any module function it statically (transitively)
// calls, reads it — capture helpers, Stats()-style accessors, and digest
// loops all count. "Mutable" is any field stored to outside the type's
// constructors (package functions returning the type) and outside the
// SnapshotState method itself; a field only ever assigned at construction
// is configuration, not state, and is skipped. Wiring fields are likewise
// skipped by type (see wiringField). Other deliberately unencoded fields —
// caches, reporting counters, free lists — carry a //lint:allow
// snapshotdrift <reason> on their declaration line, turning each omission
// into an audited decision.
func runSnapshotDrift(p *pass) []Finding {
	snapPath := p.mod.Path + "/internal/snapshot"
	sums := p.summaries()

	// Index all field writes of the analyzed packages: key -> earliest
	// write site outside constructors and the snapshot protocol methods.
	writeAt := map[FieldKey]Site{}
	for _, fn := range sums.Funcs {
		sum := sums.ByFn[fn]
		for _, w := range sum.Writes {
			if w.Key.Type == "" {
				continue
			}
			if isConstructorOf(fn, w.Key) || isProtocolMethod(fn, w.Key) {
				continue
			}
			if prev, ok := writeAt[w.Key]; !ok || w.Pos < prev.Pos {
				writeAt[w.Key] = Site{Pos: w.Pos, What: fn.FullName()}
			}
		}
	}

	isSnapPtr := func(t types.Type, name string) bool {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			return false
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok {
			return false
		}
		return named.Obj().Name() == name && pkgPathOf(named.Obj()) == snapPath
	}

	var out []Finding
	for _, pkg := range p.pkgs {
		if pkg.Path == snapPath {
			continue // the protocol package itself is exempt
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			var snap *types.Func
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Name() == "SnapshotState" {
					snap = m
				}
			}
			if snap == nil {
				continue
			}
			sig := snap.Type().(*types.Signature)
			if sig.Params().Len() != 1 || !isSnapPtr(sig.Params().At(0).Type(), "Encoder") {
				continue // not the checkpoint protocol
			}

			// Every field the capture closure reads (or re-captures via a
			// helper) is covered.
			covered := map[string]bool{}
			for fn := range sums.Reach([]*types.Func{snap}, nil) {
				sum := sums.ByFn[fn]
				if sum == nil {
					continue
				}
				for _, r := range sum.Reads {
					if r.Pkg == pkg.Path && r.Type == tn.Name() {
						covered[r.Field] = true
					}
				}
			}

			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if covered[f.Name()] || wiringField(f.Type(), p.mod.Path) {
					continue
				}
				w, mutable := writeAt[FieldKey{Pkg: pkg.Path, Type: tn.Name(), Field: f.Name()}]
				if !mutable {
					continue
				}
				out = append(out, Finding{
					Pos:   p.mod.Fset.Position(f.Pos()),
					Check: "snapshotdrift",
					Message: fmt.Sprintf("%s.%s is mutated (%s) but never read by SnapshotState: checkpoints silently omit it and Reconcile can never flag it",
						tn.Name(), f.Name(), w.What),
					Hint: "capture the field (or a digest over it), or exempt it with //lint:allow snapshotdrift <reason> on its declaration",
				})
			}
		}
	}
	return out
}

// wiringField reports field types that are wiring rather than state:
// functions and channels no codec can encode, a sim.EventID (the
// scheduler's queue digest covers pending events), and the observer
// handles whose purity observerpure enforces. Module types match by exact
// identity, so a look-alike declared elsewhere is still state.
func wiringField(t types.Type, mod string) bool {
	switch t.Underlying().(type) {
	case *types.Signature, *types.Chan:
		return true
	}
	switch types.TypeString(t, func(p *types.Package) string { return strings.TrimPrefix(p.Path(), mod+"/internal/") }) {
	case "sim.EventID", "*obs.Tracer", "*obs.Counter", "*span.Recorder":
		return true
	}
	return false
}

// isConstructorOf reports whether fn is a constructor of the key's type: a
// package-level function (no receiver) of the same package with the named
// type (or a pointer to it) among its results. Stores at construction
// describe configuration, not mutation.
func isConstructorOf(fn *types.Func, key FieldKey) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil || pkgPathOf(fn) != key.Pkg {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok &&
			named.Obj().Name() == key.Type && pkgPathOf(named.Obj()) == key.Pkg {
			return true
		}
	}
	return false
}

// isProtocolMethod reports whether fn is the SnapshotState method of the
// key's own type: stores made while capturing do not make a field
// "mutable state" by themselves.
func isProtocolMethod(fn *types.Func, key FieldKey) bool {
	if fn.Name() != "SnapshotState" {
		return false
	}
	named := recvNamed(fn)
	return named != nil && named.Obj().Name() == key.Type && pkgPathOf(named.Obj()) == key.Pkg
}
