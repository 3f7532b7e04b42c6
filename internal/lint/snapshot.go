package lint

import (
	"go/ast"
	"go/types"
)

// R8: snapshot lifetime. A sealed CSR image or statistics snapshot is
// immutable until the next seal swaps it out — at which point anything
// still aliasing the old image reads stale (or, for shared Batch columns,
// concurrently re-packed) memory. So values *derived from* a snapshot
// source — a storage.Batch piece viewing an image (the VIDs/Runs/Pieces
// fields, the Run/PieceVIDs/PieceCols calls), a shared scan column
// (ShareScanColumn / its ShareAs rename), or a *stats.Snapshot — must stay
// scoped to the read: they may not escape into package-level variables,
// struct fields reachable from the caller, channels, or goroutines.
//
// Escapes are found by running the labelled-taint engine per function with
// one extra label bit (snapMask) seeded by the source expressions above,
// and closing over the retention summaries for the interprocedural half:
// passing a snapshot-derived argument into a parameter the callee
// (transitively) retains is the same escape one call later.
//
// Sanctioned retention: types annotated //geslint:snapshot-owner <why> may
// hold snapshot-derived values in their fields (the f-Block that carries
// shared scan columns for one query, for example), and a line annotated
// //geslint:retain-ok <why> waives a single site. The packages that build
// and own the sealed structures (internal/storage, internal/stats,
// internal/txn) are exempt wholesale — they are the owners the rule
// protects everyone else from interfering with.
//
// Known false negatives, accepted by design: escapes via return values
// (the taint engine treats call results as fresh unless they are
// themselves sources), and stores into purely local structs that later
// escape. Both keep the rule quiet enough to run clean on the real module.

// snapMask is the label bit marking snapshot-derived values; parameter
// labels use the low bits.
const snapMask uint64 = 1 << 63

// snapshotOwnerPkgs are exempt from R8: they build, seal, and invalidate
// the snapshots, so retaining references is their job.
var snapshotOwnerPkgs = map[string]bool{
	"internal/storage": true,
	"internal/stats":   true,
	"internal/txn":     true,
}

// snapshotSrc is the label hook marking snapshot source expressions.
func (a *Analysis) snapshotSrc(pkg *Package, env *maskEnv) func(ast.Expr) uint64 {
	return func(e ast.Expr) uint64 {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if s := pkg.Info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				switch x.Sel.Name {
				case "VIDs", "Runs", "Pieces":
					if a.isType(pkg.Info.TypeOf(x.X), "internal/storage", "Batch") {
						return snapMask
					}
				}
			}
		case *ast.CallExpr:
			if a.isType(pkg.Info.TypeOf(x), "internal/stats", "Snapshot") {
				return snapMask
			}
			if recv, fn, ok := methodCall(pkg, x); ok {
				switch fn.Name() {
				case "Run", "PieceVIDs", "PieceCols":
					if a.isType(pkg.Info.TypeOf(recv), "internal/storage", "Batch") {
						return snapMask
					}
				case "ShareScanColumn":
					return snapMask
				case "ShareAs":
					// A renamed shared column aliases the same storage.
					if a.isType(pkg.Info.TypeOf(recv), "internal/vector", "Column") {
						return env.exprMask(recv)
					}
				}
			}
		}
		return 0
	}
}

// checkSnapshotLifetime runs R8 over every summarized function outside the
// owner packages.
func (a *Analysis) checkSnapshotLifetime() {
	fset := a.mod.Fset
	for _, fi := range a.funcOrder {
		if snapshotOwnerPkgs[fi.Pkg.Rel] {
			continue
		}
		env := &maskEnv{pkg: fi.Pkg, objs: make(map[types.Object]uint64, len(fi.env.objs))}
		for obj, m := range fi.env.objs {
			env.objs[obj] = m
		}
		env.src = a.snapshotSrc(fi.Pkg, env)
		env.solve(fi.Decl.Body)
		okLines := lineReasons(fset, fi.File, "retain-ok")

		for _, esc := range a.scanEscapes(fi.Pkg, fi.Decl.Body, env) {
			// A snapshot-derived root is a local alias shuffle, not an escape.
			if esc.mask&snapMask == 0 || esc.rootMask&snapMask != 0 {
				continue
			}
			if waivedAt(okLines, fset.Position(esc.pos).Line) {
				continue
			}
			a.report(esc.pos, "R8",
				"snapshot-derived value %s and may outlive the read (use-after-reseal); copy it out, hold it in a //geslint:snapshot-owner type, or annotate //geslint:retain-ok <why>",
				esc.desc)
		}

		// Interprocedural half: snapshot-derived arguments flowing into
		// parameters the callee transitively retains.
		a.takenArgs(fi, retainsArg, func(callee *FuncInfo, j int, arg ast.Expr) {
			if env.exprMask(arg)&snapMask == 0 || waivedAt(okLines, fset.Position(arg.Pos()).Line) {
				return
			}
			a.report(arg.Pos(), "R8",
				"snapshot-derived value passed to %s, which retains parameter %q beyond the call; copy it out or annotate //geslint:retain-ok <why>",
				funcLabel(callee.Fn), callee.Params[j].Name())
		})
	}
}
