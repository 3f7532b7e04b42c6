package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// The invariant rules geslint enforces over the engine. Tags keep their
// history and are not reused: R3 is the one owner-only-mutation rule that
// replaced the former R3 (selection vectors), R4 (f-Block column appends)
// and R6 (statistics values), whose findings it reports under R3; R1
// (scalar property reads in internal/op) and R9 (atomic publication) were
// deleted — storage.View has no scalar property read left to police.
//
//	R0  directive hygiene: a //geslint:<name> comment whose name is not a
//	    live directive (a misspelling, or a deleted directive such as
//	    atomicptr, seal, scalar-ok, selwrite-ok, statswrite-ok) is inert and
//	    a finding.
//	R2  lock acquisition in internal/storage and internal/txn must follow the
//	    partial order declared by //geslint:lockorder A < B comments; both
//	    inversions and undeclared nestings are findings. Acquire sets come
//	    from the interprocedural summaries, so nesting hidden behind a helper
//	    in another package is still seen.
//	R3  owner-only mutation: each value in ownedValues is mutated only inside
//	    its owner package (and, for selection vectors, the internal/op files
//	    named in selWriters) — directly or through a local alias. Selection
//	    vectors (core.Node.Sel) and f-Block columns belong to internal/core:
//	    a foreign Bitset write breaks selection ownership, a foreign column
//	    append the equal-cardinality invariant (I1). internal/stats values
//	    are immutable once published behind the atomic pointer, so no field
//	    or element store goes through one outside internal/stats —
//	    copy-conservatively, because a copied Family still shares bucket
//	    storage with the published snapshot. There is no opt-out directive.
//	R5  internal/{op,exec,service,driver,bench} start no goroutine with a raw
//	    go statement: a query runs on its caller's goroutine, and the
//	    process's concurrency is its callers'. //geslint:go-ok on or above
//	    the line opts a single deliberate spawn out (internal/driver's
//	    closed-loop workers).
//	R7  functions annotated //geslint:kernel are transitively allocation-,
//	    lock-, and spawn-free with no unanalyzable calls; individual sites
//	    are waived by //geslint:alloc-ok <why> on or above the line.
//	R8  values reachable from a sealed snapshot (internal/stats Snapshot, a
//	    storage.Batch run or piece, a shared scan column) must not escape
//	    into struct fields, package variables, channels, or goroutines that
//	    outlive the read, outside types annotated //geslint:snapshot-owner
//	    <why>. Escapes through module-internal calls are caught via the
//	    retention summaries; //geslint:retain-ok <why> waives a line.
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

// selWriters are the files sanctioned by name to write selection vectors
// (R3): the Filter operator and Distinct beside it, which clears the rows
// that repeat an earlier one, and ExpandInto, whose intersection closure
// narrows the child node's selection in place instead of copying the tree
// through a Filter. New operators must earn a named entry here.
var selWriters = map[string]bool{
	"internal/op/filter.go":     true,
	"internal/op/expandinto.go": true,
}

// bitsetWrites are the vector.Bitset mutators R3 polices.
var bitsetWrites = map[string]bool{
	"Set": true, "Clear": true, "SetTo": true, "SetAll": true, "ClearAll": true,
	"ClearWord": true, "Append": true, "Resize": true,
}

// columnAppends are the vector.Column cardinality-changing mutators R3
// polices.
var columnAppends = map[string]bool{
	"Append": true, "AppendVID": true, "AppendInt64": true, "AppendFloat64": true,
	"AppendString": true, "AppendBool": true, "AppendVIDs": true,
	"Grow": true, "Gather": true,
}

// goScope lists the module-relative package prefixes R5 covers: the query
// path and the harnesses that drive it.
var goScope = []string{"internal/op", "internal/exec", "internal/service",
	"internal/driver", "internal/bench"}

// Analysis holds the module-wide analysis state: the lock order, the
// per-function summaries and their deterministic order, the annotated
// snapshot-owner types, and the findings.
type Analysis struct {
	mod       *Module
	order     *lockOrder
	funcs     map[*types.Func]*FuncInfo
	funcOrder []*FuncInfo
	owners    map[types.Object]string // snapshot-owner types -> justification
	diags     []Diag
}

// Analyze builds the interprocedural substrate for a loaded module: markers,
// per-function summaries, and the fixed-point closures over the call graph.
func Analyze(mod *Module) *Analysis {
	a := &Analysis{
		mod:    mod,
		order:  collectLockOrder(mod),
		funcs:  map[*types.Func]*FuncInfo{},
		owners: map[types.Object]string{},
	}
	a.collectOwners()
	a.buildSummaries()
	a.closeAcquires()
	// Parameter retention: passing a parameter-derived value into a
	// retaining parameter retains it here too.
	a.closeParams(func(fi *FuncInfo) []bool { return fi.Retains }, retainsArg)
	a.closeImpurity()
	return a
}

// Run applies every rule and returns the sorted findings.
func (a *Analysis) Run() []Diag {
	a.diags = nil
	a.checkDirectives()
	for _, pkg := range a.mod.Pkgs {
		rel := pkg.Rel
		for _, f := range pkg.Files {
			file := rel + "/" + filepath.Base(a.mod.Fset.Position(f.Pos()).Filename)
			for i := range ownedValues {
				if ov := &ownedValues[i]; rel != ov.owner && !ov.files[file] {
					a.checkOwnedMutations(pkg, f, ov)
				}
			}
			for _, scope := range goScope {
				if hasPrefix(rel, scope) {
					a.checkGoStmts(pkg, f)
					break
				}
			}
		}
	}
	for _, fi := range a.funcOrder {
		if fi.Pkg.Rel == "internal/storage" || fi.Pkg.Rel == "internal/txn" {
			a.scanHeldLocks(fi.Pkg, fi.Decl)
		}
	}
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

// collectOwners gathers the //geslint:snapshot-owner type declarations R8
// keys on. Kernel markers live on FuncInfo.
func (a *Analysis) collectOwners() {
	fset := a.mod.Fset
	for _, pkg := range a.mod.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
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
				}
			}
		}
	}
}

// ---------------------------------------------------------------- R3

// ownedValue is one row of R3: values matched by src, and local aliases of
// them, are mutated only inside the owner package and the named files.
type ownedValue struct {
	what     string
	src      func(a *Analysis, pkg *Package, e ast.Expr) bool
	mutators map[string]bool // mutating methods; nil means field and element stores
	owner    string          // module-relative owner package
	files    map[string]bool // module-relative files sanctioned by name
	hint     string
}

var ownedValues = []ownedValue{
	{what: "a selection vector (core.Node.Sel)", src: (*Analysis).isSelField,
		mutators: bitsetWrites, owner: "internal/core", files: selWriters,
		hint: "route through Filter, or name the file in selWriters"},
	{what: "an f-Block column", src: (*Analysis).isBlockColumn,
		mutators: columnAppends, owner: "internal/core",
		hint: "growing a column breaks the equal-cardinality invariant (I1); build columns before AddColumn"},
	{what: "an internal/stats value", src: (*Analysis).isStatsValue,
		owner: "internal/stats",
		hint:  "published snapshots are immutable; assemble through stats.Builder"},
}

// isSelField matches `<expr>.Sel` where <expr> is a core.Node.
func (a *Analysis) isSelField(pkg *Package, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Sel" && a.isType(pkg.Info.TypeOf(sel.X), "internal/core", "Node")
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
		return a.isType(pkg.Info.TypeOf(recv), "internal/core", "FBlock")
	}
	return false
}

// isStatsValue matches a value of an internal/stats named type (possibly
// behind pointers), or a field reached through one.
func (a *Analysis) isStatsValue(pkg *Package, e ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok && a.isStatsValue(pkg, sel.X) {
		return true
	}
	n := namedOf(pkg.Info.TypeOf(e))
	return n != nil && n.Obj().Pkg() != nil && a.relOf(n.Obj().Pkg()) == "internal/stats"
}

// checkOwnedMutations reports, in one file outside ov's owners, every
// mutator call on a guarded receiver — or, for a store-guarded row, every
// assignment or ++/-- through a guarded value.
func (a *Analysis) checkOwnedMutations(pkg *Package, f *ast.File, ov *ownedValue) {
	src := func(e ast.Expr) bool { return ov.src(a, pkg, e) }
	tainted := taintedObjs(pkg, f, src)
	guarded := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && tainted[pkg.Info.ObjectOf(id)] || src(e)
	}
	report := func(pos token.Pos, how string) {
		a.report(pos, "R3", "%s mutates %s outside %s; %s", how, ov.what, ov.owner, ov.hint)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if recv, fn, ok := methodCall(pkg, x); ok && ov.mutators[fn.Name()] && guarded(recv) {
				report(x.Pos(), fn.Name())
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if ov.mutators == nil && storesThrough(lhs, guarded) {
					report(lhs.Pos(), "store")
				}
			}
		case *ast.IncDecStmt:
			if ov.mutators == nil && storesThrough(x.X, guarded) {
				report(x.X.Pos(), "store")
			}
		}
		return true
	})
}

// storesThrough reports whether a store to target writes through a guarded
// value: some proper prefix of its field, element or dereference chain.
func storesThrough(target ast.Expr, guarded func(ast.Expr) bool) bool {
	for {
		switch x := ast.Unparen(target).(type) {
		case *ast.StarExpr:
			target = x.X
		case *ast.IndexExpr:
			target = x.X
		case *ast.SelectorExpr:
			target = x.X
		default:
			return false
		}
		if guarded(ast.Unparen(target)) {
			return true
		}
	}
}

// ---------------------------------------------------------------- R5

// checkGoStmts flags raw go statements in the goScope packages.
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
			"raw go statement in %s; a query runs on its caller's goroutine, so annotate a deliberate spawn //geslint:go-ok",
			pkg.Rel)
		return true
	})
}
