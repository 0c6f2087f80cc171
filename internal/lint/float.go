package lint

import (
	"fmt"
	"go/types"
)

// runFloat flags floating-point arithmetic that a digest, snapshot, or
// event-ordering path of a deterministic package can reach.
//
// The cross-platform hazard is precise: individual IEEE 754 operations
// are bit-exact everywhere, but the Go spec permits fusing x*y ± z into a
// single FMA (and does so on arm64 and ppc64), transcendental math
// functions are only faithfully rounded, and refactoring a float
// expression re-associates rounding — so any float arithmetic whose
// result can influence an event deadline, a checkpoint digest, or
// snapshot bytes threatens the bit-identical-replay guarantee the moment
// a run crosses architectures. Float math confined to reporting and
// statistics (functions no ordering path reaches) stays legal.
//
// Roots are the functions of deterministic packages that directly feed a
// sink — scheduling events on a sim.Scheduler, or writing to the snapshot
// codec (Encoder/Decoder/Hash/Reconcile, which covers every SnapshotState
// method and the resume check that re-runs it). The taint floods forward along static call
// edges: a helper two hops below a digest writer is as dangerous as the
// writer itself. Reports are confined to deterministic packages; the
// flood under-approximates (no edges through function values or interface
// calls), so every report is a float op a real sink path can execute.
func runFloat(p *pass) []Finding {
	sums := p.summaries()

	kind := map[*types.Func]string{}
	var roots []*types.Func
	for _, fn := range sums.Funcs {
		if !p.det(pkgPathOf(fn)) {
			continue
		}
		sum := sums.ByFn[fn]
		switch {
		case len(sum.Schedules) > 0:
			kind[fn] = "event-ordering"
		case len(sum.Digests) > 0:
			kind[fn] = "digest/snapshot"
		default:
			continue
		}
		roots = append(roots, fn)
	}
	rootOf := sums.Reach(roots, nil)

	const hint = "ordering and digest paths must stay integer-only for cross-platform bit-identity " +
		"(Go may contract x*y±z into one fused op per GOARCH); use integer math or add an audited //lint:allow float"
	var out []Finding
	for _, fn := range sums.Funcs {
		root, tainted := rootOf[fn]
		if !tainted || !p.det(pkgPathOf(fn)) {
			continue
		}
		// One finding per source line keeps multi-op expressions
		// (a/b*c) from reporting every operator.
		seenLine := map[int]bool{}
		for _, s := range sums.ByFn[fn].FloatOps {
			pos := p.mod.Fset.Position(s.Pos)
			if seenLine[pos.Line] {
				continue
			}
			seenLine[pos.Line] = true
			msg := fmt.Sprintf("%s in %s, on the %s path anchored at %s", s.What, fn.Name(), kind[root], root.FullName())
			if root == fn {
				msg = fmt.Sprintf("%s in %s, which feeds a %s sink directly", s.What, fn.Name(), kind[root])
			}
			out = append(out, Finding{
				Pos:     pos,
				Check:   "float",
				Message: msg,
				Hint:    hint,
			})
		}
	}
	return out
}
