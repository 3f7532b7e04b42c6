package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// The eleven invariant rules geslint enforces over the engine:
//
//	R1  no scalar storage reads in internal/op. View.Prop / View.ExtID must
//	    go through the vectorized gather path; files implementing the
//	    deliberate scalar fallback opt out with //geslint:scalar-ok.
//	    View.Neighbors must go through the batched expand kernel
//	    (View.NeighborsBatch); the two per-source walks that remain (the
//	    ExpandInto probe and the path-semantics DFS) are each deliberate, so
//	    the opt-out is line-scope only — //geslint:scalar-ok on or above the
//	    call — and a file-level directive cannot silently exempt new
//	    per-source adjacency loops.
//	R2  lock acquisition in internal/storage and internal/txn must follow the
//	    partial order declared by //geslint:lockorder A < B comments; both
//	    inversions and undeclared nestings are findings. Acquire sets come
//	    from the interprocedural summaries, so nesting hidden behind a helper
//	    in another package is still seen.
//	R3  selection vectors (core.Node.Sel) are written only by internal/core
//	    and the operators sanctioned by name in selWriters (filter.go, and
//	    expandinto.go whose in-place closure narrows the child selection);
//	    //geslint:selwrite-ok opts a file out.
//	R4  f-Block columns are never appended to outside internal/core — growing
//	    a column breaks the equal-cardinality invariant (I1) behind the
//	    block's back.
//	R5  internal/{op,exec,service,driver,bench} spawn goroutines only through
//	    internal/sched; a raw go statement escapes the scheduler's budget.
//	    //geslint:go-ok on or above the line opts a single statement out.
//	R6  statistics snapshots follow the CSR image's ownership discipline:
//	    once published behind the atomic pointer they are immutable, so the
//	    fields, maps and histogram buckets of internal/stats value types
//	    (Snapshot, Family, Column, Histogram, Bucket) are written only
//	    inside internal/stats, where the Builder assembles them privately.
//	    The rule is deliberately copy-conservative — mutating even a
//	    by-value copy of a Family is flagged, because its Histogram shares
//	    bucket storage with the published snapshot. //geslint:statswrite-ok
//	    opts a file out. Sites are collected during summary construction.
//	R7  functions annotated //geslint:kernel are transitively allocation-,
//	    lock-, and spawn-free with no unanalyzable calls; individual sites
//	    are waived by //geslint:alloc-ok <why> on or above the line.
//	R8  values reachable from a sealed snapshot (internal/stats Snapshot, a
//	    storage.Batch run or piece, a shared scan column) must not escape
//	    into struct fields, package variables, channels, or goroutines that
//	    outlive the morsel, outside types annotated //geslint:snapshot-owner
//	    <why>. Escapes through module-internal calls are caught via the
//	    retention summaries; //geslint:retain-ok <why> waives a line.
//	R9  struct fields annotated //geslint:atomicptr are read only through
//	    atomic Load and published (Store/Swap/CompareAndSwap) only inside
//	    functions annotated //geslint:seal <why>.
//	R10 errors returned by module-internal functions are never silently
//	    discarded — neither by a bare call statement nor a blank assign —
//	    outside lines annotated //geslint:err-ok <why>.
//	R11 transient pooled buffers follow the acquire/release discipline:
//	    outside internal/storage, every storage Arena/Pool Get* call must be
//	    discharged by the acquiring function — a matching Put* (found through
//	    the local alias taint), or an ownership hand-off (returned, stored
//	    into a container, sent on a channel, or passed to a callee that
//	    transitively releases or retains it, closed over the discharge and
//	    retention summaries). //geslint:leak-ok <why> waives a line. Arena
//	    Own* calls are exempt: Release returns them wholesale.

// selWriters are the internal/op files sanctioned by name to write selection
// vectors (R3): the Filter operator, and ExpandInto, whose intersection
// closure narrows the child node's selection in place instead of copying the
// tree through a Filter. New operators must earn a named entry here — a
// file-scope directive would also exempt future unrelated writes in the file.
var selWriters = map[string]bool{
	"filter.go":     true,
	"expandinto.go": true,
}

// bitsetWrites are the vector.Bitset mutators R3 polices.
var bitsetWrites = map[string]bool{
	"Set": true, "Clear": true, "SetTo": true, "SetAll": true, "ClearAll": true,
	"ClearRange": true, "ClearWord": true, "And": true, "Append": true, "Resize": true,
}

// columnAppends are the vector.Column cardinality-changing mutators R4
// polices.
var columnAppends = map[string]bool{
	"Append": true, "AppendVID": true, "AppendInt64": true, "AppendFloat64": true,
	"AppendString": true, "AppendBool": true, "AppendSegment": true,
	"Extend": true, "Grow": true,
}

// goScope lists the module-relative package prefixes R5 covers. internal/sched
// is deliberately absent: it is the sanctioned spawn point.
var goScope = []string{"internal/op", "internal/exec", "internal/service",
	"internal/driver", "internal/bench"}

// Analysis holds the module-wide analysis state: the lock order, the
// per-function summaries and their deterministic order, the annotated
// snapshot-owner types and atomic-pointer fields, and the findings.
type Analysis struct {
	mod       *Module
	order     *lockOrder
	funcs     map[*types.Func]*FuncInfo
	funcOrder []*FuncInfo
	sealDecls map[*ast.FuncDecl]bool
	owners    map[types.Object]string // snapshot-owner types -> justification
	atomics   map[types.Object]bool   // atomicptr-annotated fields
	diags     []Diag
}

// Analyze builds the interprocedural substrate for a loaded module: markers,
// per-function summaries, and the fixed-point closures over the call graph.
func Analyze(mod *Module) *Analysis {
	a := &Analysis{
		mod:       mod,
		order:     collectLockOrder(mod),
		funcs:     map[*types.Func]*FuncInfo{},
		sealDecls: map[*ast.FuncDecl]bool{},
		owners:    map[types.Object]string{},
		atomics:   map[types.Object]bool{},
	}
	a.collectMarkers()
	a.buildSummaries()
	for _, fi := range a.funcOrder {
		if fi.Seal {
			a.sealDecls[fi.Decl] = true
		}
	}
	a.closeAcquires()
	a.closeRetains()
	a.closeImpurity()
	return a
}

// Run applies every rule and returns the sorted findings.
func (a *Analysis) Run() []Diag {
	a.diags = nil
	a.checkJustifications()
	for _, pkg := range a.mod.Pkgs {
		rel := pkg.Rel
		for _, f := range pkg.Files {
			dirs := fileDirectives(f)
			if hasPrefix(rel, "internal/op") {
				a.checkScalarProps(pkg, f, dirs["scalar-ok"])
			}
			if rel != "internal/core" && !dirs["selwrite-ok"] {
				a.checkSelWrites(pkg, f)
			}
			if rel != "internal/core" {
				a.checkColumnAppends(pkg, f)
			}
			for _, scope := range goScope {
				if hasPrefix(rel, scope) {
					a.checkGoStmts(pkg, f)
					break
				}
			}
			a.checkAtomicPtr(pkg, f)
		}
		if rel == "internal/storage" || rel == "internal/txn" {
			a.checkLockOrder(pkg)
		}
	}
	a.checkStatsSummaries()
	a.checkKernels()
	a.checkSnapshotLifetime()
	a.checkErrDiscards()
	a.checkPoolDiscipline()
	sortDiags(a.diags)
	return a.diags
}

// Run is the one-call entry point: analyze the module and apply every rule.
func Run(mod *Module) []Diag {
	return Analyze(mod).Run()
}

func (a *Analysis) report(pos token.Pos, rule, format string, args ...any) {
	a.diags = append(a.diags, diagAt(a.mod.Root, a.mod.Fset.Position(pos), rule, format, args...))
}

func hasPrefix(rel, scope string) bool {
	return rel == scope || strings.HasPrefix(rel, scope+"/")
}

// relOf maps a types.Package to its module-relative path ("" for the module
// root package, the full path for out-of-module packages).
func (a *Analysis) relOf(p *types.Package) string {
	if p == nil {
		return ""
	}
	pp := p.Path()
	if pp == a.mod.Path {
		return ""
	}
	if strings.HasPrefix(pp, a.mod.Path+"/") {
		return pp[len(a.mod.Path)+1:]
	}
	return pp
}

// namedOf peels pointers and returns the underlying named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isType reports whether t (possibly behind pointers) is the named type
// rel.name of this module.
func (a *Analysis) isType(t types.Type, rel, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return a.relOf(n.Obj().Pkg()) == rel && n.Obj().Name() == name
}

// methodCall decomposes a call of the form recv.Method(...) into its pieces,
// using the type-checker's selection record. ok is false for plain function
// and package-qualified calls.
func methodCall(pkg *Package, call *ast.CallExpr) (recv ast.Expr, obj *types.Func, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, false
	}
	s := pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return nil, nil, false
	}
	fn, isFn := s.Obj().(*types.Func)
	if !isFn {
		return nil, nil, false
	}
	return sel.X, fn, true
}

// collectMarkers gathers the declaration-scope annotations rules key on:
// //geslint:snapshot-owner on type declarations (R8) and //geslint:atomicptr
// on struct fields (R9). Kernel and seal markers live on FuncInfo.
func (a *Analysis) collectMarkers() {
	fset := a.mod.Fset
	for _, pkg := range a.mod.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					docPos := token.NoPos
					if ts.Doc != nil {
						docPos = ts.Doc.Pos()
					} else if gd.Doc != nil {
						docPos = gd.Doc.Pos()
					}
					if r := declDirective(fset, f, "snapshot-owner", docPos, ts.Pos()); r != nil && *r != "" {
						if obj := pkg.Info.Defs[ts.Name]; obj != nil {
							a.owners[obj] = *r
						}
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if !fieldHasDirective(field, "atomicptr") {
							continue
						}
						for _, name := range field.Names {
							if obj := pkg.Info.Defs[name]; obj != nil {
								a.atomics[obj] = true
							}
						}
					}
				}
			}
		}
	}
}

// fieldHasDirective reports an atomicptr-style directive in a struct field's
// doc or trailing same-line comment.
func fieldHasDirective(field *ast.Field, name string) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := directiveRe.FindStringSubmatch(c.Text); m != nil && m[1] == name {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------- R1

// checkScalarProps flags scalar storage reads resolved to internal/storage:
// View.Prop / View.ExtID (the per-row calls the §5 vectorized gather path
// exists to batch away) and View.Neighbors (the per-source call the batched
// expand kernel replaces). fileOK is the file-scope scalar-ok directive; it
// exempts Prop/ExtID only. Neighbors accepts just the line-scope form — a
// //geslint:scalar-ok comment on or directly above the call — so each
// deliberate scalar adjacency loop stays individually annotated.
func (a *Analysis) checkScalarProps(pkg *Package, f *ast.File, fileOK bool) {
	okLines := directiveLines(a.mod.Fset, f, "scalar-ok")
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		_, fn, ok := methodCall(pkg, call)
		if !ok {
			return true
		}
		name := fn.Name()
		if (name != "Prop" && name != "ExtID" && name != "Neighbors") ||
			a.relOf(fn.Pkg()) != "internal/storage" {
			return true
		}
		line := a.mod.Fset.Position(call.Pos()).Line
		if okLines[line] || okLines[line-1] {
			return true
		}
		if name == "Neighbors" {
			a.report(call.Pos(), "R1",
				"scalar %s.Neighbors call in internal/op bypasses the batched expand kernel; use View.NeighborsBatch or annotate the line //geslint:scalar-ok",
				recvTypeName(pkg, call))
			return true
		}
		if fileOK {
			return true
		}
		a.report(call.Pos(), "R1",
			"scalar %s.%s call in internal/op bypasses the vectorized gather path; batch with GatherProps/GatherExtIDs or annotate the file //geslint:scalar-ok",
			recvTypeName(pkg, call), name)
		return true
	})
}

// recvTypeName renders the receiver's named type for diagnostics.
func recvTypeName(pkg *Package, call *ast.CallExpr) string {
	sel := call.Fun.(*ast.SelectorExpr)
	if n := namedOf(pkg.Info.TypeOf(sel.X)); n != nil {
		return n.Obj().Name()
	}
	return "View"
}

// ---------------------------------------------------------------- R3 / R4

// isSelField matches `<expr>.Sel` where <expr> is a core.Node.
func (a *Analysis) isSelField(pkg *Package, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sel" {
		return false
	}
	return a.isType(pkg.Info.TypeOf(sel.X), "internal/core", "Node")
}

// checkSelWrites flags Bitset mutators applied to a selection vector
// (core.Node.Sel, directly or through a local alias) outside the sanctioned
// writers.
func (a *Analysis) checkSelWrites(pkg *Package, f *ast.File) {
	fname := a.mod.Fset.Position(f.Pos()).Filename
	if pkg.Rel == "internal/op" && selWriters[filepath.Base(fname)] {
		return
	}
	isSel := func(e ast.Expr) bool { return a.isSelField(pkg, e) }
	tainted := taintedObjs(pkg, f, isSel)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, fn, ok := methodCall(pkg, call)
		if !ok || !bitsetWrites[fn.Name()] {
			return true
		}
		if a.relOf(fn.Pkg()) != "internal/vector" || namedOf(pkg.Info.TypeOf(recv)) == nil ||
			!a.isType(pkg.Info.TypeOf(recv), "internal/vector", "Bitset") {
			return true
		}
		selRecv := isSel(recv)
		if !selRecv {
			if id, isID := recv.(*ast.Ident); isID {
				selRecv = tainted[pkg.Info.ObjectOf(id)]
			}
		}
		if selRecv {
			a.report(call.Pos(), "R3",
				"selection-vector write %s outside internal/core and the sanctioned internal/op writers (filter.go, expandinto.go); route through Filter or annotate the file //geslint:selwrite-ok",
				fn.Name())
		}
		return true
	})
}

// isBlockColumn matches expressions yielding a column owned by an f-Block:
// b.Column(i), b.ColumnByName(n), b.Columns()[i].
func (a *Analysis) isBlockColumn(pkg *Package, e ast.Expr) bool {
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	recv, fn, ok := methodCall(pkg, call)
	if !ok {
		return false
	}
	switch fn.Name() {
	case "Column", "ColumnByName", "Columns":
	default:
		return false
	}
	return a.isType(pkg.Info.TypeOf(recv), "internal/core", "FBlock")
}

// checkColumnAppends flags cardinality-changing Column mutators applied to a
// column reached through an f-Block accessor — the runtime counterpart is
// invariant I1 in core.(*FTree).Invariants.
func (a *Analysis) checkColumnAppends(pkg *Package, f *ast.File) {
	isBlockCol := func(e ast.Expr) bool { return a.isBlockColumn(pkg, e) }
	tainted := taintedObjs(pkg, f, isBlockCol)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, fn, ok := methodCall(pkg, call)
		if !ok || !columnAppends[fn.Name()] {
			return true
		}
		if !a.isType(pkg.Info.TypeOf(recv), "internal/vector", "Column") {
			return true
		}
		bad := isBlockCol(recv)
		if !bad {
			if id, isID := recv.(*ast.Ident); isID {
				bad = tainted[pkg.Info.ObjectOf(id)]
			}
		}
		if bad {
			a.report(call.Pos(), "R4",
				"%s on an f-Block column outside internal/core breaks the equal-cardinality invariant (I1); build columns before AddColumn",
				fn.Name())
		}
		return true
	})
}

// ---------------------------------------------------------------- R6

// isStatsValue reports whether e's type (possibly behind pointers) is a
// named type of internal/stats.
func (a *Analysis) isStatsValue(pkg *Package, e ast.Expr) bool {
	n := namedOf(pkg.Info.TypeOf(e))
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return a.relOf(n.Obj().Pkg()) == "internal/stats"
}

// checkStatsSummaries is R6 as a summary query: the write sites were
// collected during summary construction (sharing the single AST pass), and
// the rule just filters them by package and file directive.
func (a *Analysis) checkStatsSummaries() {
	for _, fi := range a.funcOrder {
		if fi.Pkg.Rel == "internal/stats" || len(fi.StatsWrites) == 0 {
			continue
		}
		if fileDirectives(fi.File)["statswrite-ok"] {
			continue
		}
		for _, pos := range fi.StatsWrites {
			a.report(pos, "R6",
				"write through an internal/stats value in %s; published snapshots are immutable — assemble through stats.Builder or annotate the file //geslint:statswrite-ok",
				fi.Pkg.Rel)
		}
	}
}

// ---------------------------------------------------------------- R5

// checkGoStmts flags raw go statements in packages that must spawn through
// internal/sched.
func (a *Analysis) checkGoStmts(pkg *Package, f *ast.File) {
	okLines := directiveLines(a.mod.Fset, f, "go-ok")
	ast.Inspect(f, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		line := a.mod.Fset.Position(g.Pos()).Line
		if okLines[line] || okLines[line-1] {
			return true
		}
		a.report(g.Pos(), "R5",
			"raw go statement in %s; spawn through internal/sched so workers stay within the scheduler budget, or annotate //geslint:go-ok",
			pkg.Rel)
		return true
	})
}
