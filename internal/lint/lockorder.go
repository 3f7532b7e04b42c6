package lint

import (
	"go/ast"
	"sort"
)

// R2: lock-order checking. Lock sites are named "TypeName.fieldName" (the
// struct type owning the mutex field, peeling pointers and index
// expressions, so every stripe of a striped lock table shares one name).
// //geslint:lockorder A < B comments declare that A may be held while
// acquiring B; the relation is closed transitively. A function acquiring B
// while holding A is flagged when the declared order says B < A (inversion)
// or when no declared path connects them (undeclared nesting). Acquisitions
// are tracked by a linear in-order scan per function — a deliberate
// approximation (branches are treated sequentially) that favors false
// negatives over false positives. Calls made while holding a lock check the
// callee's transitive acquire set from the interprocedural summaries, so
// nesting hidden behind a helper — even one declared in another package —
// is still seen.

// lockOrder is the declared partial order over lock names.
type lockOrder struct {
	edges map[string]map[string]bool // a -> set of b with a < b declared
}

// collectLockOrder gathers //geslint:lockorder declarations module-wide.
func collectLockOrder(mod *Module) *lockOrder {
	o := &lockOrder{edges: map[string]map[string]bool{}}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			eachDirective(f, func(_ *ast.Comment, name, arg string) {
				if lm := lockOrderRe.FindStringSubmatch(arg); name == "lockorder" && lm != nil {
					if o.edges[lm[1]] == nil {
						o.edges[lm[1]] = map[string]bool{}
					}
					o.edges[lm[1]][lm[2]] = true
				}
			})
		}
	}
	return o
}

// before reports whether a < b is declared (transitively).
func (o *lockOrder) before(a, b string) bool {
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(cur string) bool {
		if seen[cur] {
			return false
		}
		seen[cur] = true
		for next := range o.edges[cur] {
			if next == b || walk(next) {
				return true
			}
		}
		return false
	}
	return walk(a)
}

// mutexOp decomposes a call into a sync.Mutex / sync.RWMutex lock operation:
// the operation name (Lock/RLock/Unlock/RUnlock) and the lock's derived
// name. ok is false for every other call.
func (a *Analysis) mutexOp(pkg *Package, call *ast.CallExpr) (op, lock string, ok bool) {
	recv, fn, ok := methodCall(pkg, call)
	if !ok {
		return "", "", false
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	n := namedOf(pkg.Info.TypeOf(recv))
	if n == nil || (n.Obj().Name() != "Mutex" && n.Obj().Name() != "RWMutex") {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return fn.Name(), a.lockName(pkg, recv), true
	}
	return "", "", false
}

// lockName derives the stable name of a mutex expression: the named type of
// the enclosing struct plus the field name. Index expressions are peeled so
// striped locks share one name; bare identifiers (local mutexes) name
// themselves.
func (a *Analysis) lockName(pkg *Package, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return a.lockName(pkg, x.X)
	case *ast.IndexExpr:
		return a.lockName(pkg, x.X)
	case *ast.SelectorExpr:
		if n := namedOf(pkg.Info.TypeOf(x.X)); n != nil {
			return n.Obj().Name() + "." + x.Sel.Name
		}
		return a.lockName(pkg, x.X) + "." + x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// scanHeldLocks runs R2 over one function of internal/storage or
// internal/txn: it walks the body in source order, maintaining the stack of
// held locks and checking every new acquisition — direct or through a
// resolved callee's transitive acquire set, already closed module-wide by
// closeAcquires — against the declared order.
func (a *Analysis) scanHeldLocks(pkg *Package, fd *ast.FuncDecl) {
	var held []string
	heldHas := func(lock string) bool {
		for _, h := range held {
			if h == lock {
				return true
			}
		}
		return false
	}
	check := func(pos ast.Node, lock, via string) {
		for _, h := range held {
			if h == lock {
				continue // striped / re-entrant by index: not ordered against itself
			}
			if a.order.before(lock, h) {
				a.report(pos.Pos(), "R2",
					"acquiring %s%s while holding %s inverts the declared lock order (%s < %s)",
					lock, via, h, lock, h)
			} else if !a.order.before(h, lock) {
				a.report(pos.Pos(), "R2",
					"acquiring %s%s while holding %s: nesting not declared; add //geslint:lockorder %s < %s if intended",
					lock, via, h, h, lock)
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held to the end of the
			// function: skip the call so the held stack is not popped early.
			if op, _, ok := a.mutexOp(pkg, s.Call); ok && (op == "Unlock" || op == "RUnlock") {
				return false
			}
		case *ast.FuncLit:
			// Closure bodies run at an unknown time relative to this scan;
			// they are analyzed when encountered, against the current held
			// set, which matches the common immediate-invocation pattern.
			return true
		case *ast.CallExpr:
			if op, lock, ok := a.mutexOp(pkg, s); ok {
				switch op {
				case "Lock", "RLock":
					check(s, lock, "")
					held = append(held, lock)
				case "Unlock", "RUnlock":
					for i := len(held) - 1; i >= 0; i-- {
						if held[i] == lock {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
				}
				return false
			}
			if len(held) == 0 {
				return true
			}
			if callee := calleeFunc(pkg, s); callee != nil {
				ci := a.funcs[callee]
				if ci == nil {
					return true
				}
				locks := make([]string, 0, len(ci.Acquires))
				for lock := range ci.Acquires {
					if !heldHas(lock) {
						locks = append(locks, lock)
					}
				}
				sort.Strings(locks)
				for _, lock := range locks {
					check(s, lock, " (via "+callee.Name()+")")
				}
			}
		}
		return true
	})
}
