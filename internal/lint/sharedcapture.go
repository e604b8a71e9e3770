package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// sharedCaptureRule polices the goroutine closures of the scheduler
// packages — the only places allowed to start goroutines — for the
// races the race detector only catches when a test happens to hit
// them: a closure writing a captured variable with no evidence of
// confinement. The analysis is typed and deliberately lightweight:
//
//   - per-slot element writes into a captured slice (outs.crit[k] = v)
//     are the sanctioned disjoint-index worker convention and pass;
//   - writes positioned between a mutex Lock and its Unlock (deferred
//     Unlock counts to the closure's end) pass;
//   - channel sends, close(), and sync/atomic calls pass;
//   - anything else — whole-variable assignment, a store through a
//     captured pointer or struct field, a captured map write — is a
//     shared-state write the summaries cannot prove confined, and is
//     reported.
//
// go/types tells a slice index from a map index and resolves the
// mutexes.
type sharedCaptureRule struct{}

func (sharedCaptureRule) Name() string { return "sharedcapture" }
func (sharedCaptureRule) Doc() string {
	return "goroutine closures in the scheduler packages must not write captured state without proof of confinement (per-slot index writes, mutex guard, or channels)"
}

func (sharedCaptureRule) Check(prog *Program, pkg *Pkg, f *File, report ReportFunc) {
	if !inDirs(f, schedulerDirs) {
		return
	}
	info := pkg.Info
	ast.Inspect(f.AST, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		checkClosureWrites(info, lit, report)
		return true
	})
}

// lockWindow is one mutex-held interval inside a closure body.
type lockWindow struct{ lo, hi token.Pos }

// lockWindows collects the [Lock, Unlock) position intervals of every
// sync.Mutex/RWMutex operation in the closure. A deferred Unlock
// extends its window to the closure's end. Windows are matched
// positionally, not per-object — precise enough for the short worker
// closures this rule patrols.
func lockWindows(info *types.Info, lit *ast.FuncLit) []lockWindow {
	type ev struct {
		pos    token.Pos
		unlock bool
	}
	var evs []ev
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		var call *ast.CallExpr
		deferred := false
		switch n := n.(type) {
		case *ast.DeferStmt:
			call, deferred = n.Call, true
		case *ast.CallExpr:
			call = n
		default:
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !isMutexType(info.TypeOf(sel.X)) {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			evs = append(evs, ev{call.Pos(), false})
		case "Unlock", "RUnlock":
			if deferred {
				evs = append(evs, ev{lit.Body.End(), true})
			} else {
				evs = append(evs, ev{call.Pos(), true})
			}
		}
		// Don't descend into a handled defer: its CallExpr would be
		// revisited as an immediate call and close the window early.
		return !deferred
	})
	sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	var out []lockWindow
	var open []token.Pos
	for _, e := range evs {
		if !e.unlock {
			open = append(open, e.pos)
			continue
		}
		if len(open) > 0 {
			out = append(out, lockWindow{open[len(open)-1], e.pos})
			open = open[:len(open)-1]
		}
	}
	for _, lo := range open {
		out = append(out, lockWindow{lo, lit.Body.End()})
	}
	return out
}

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func checkClosureWrites(info *types.Info, lit *ast.FuncLit, report ReportFunc) {
	windows := lockWindows(info, lit)
	guarded := func(pos token.Pos) bool {
		for _, w := range windows {
			if pos > w.lo && pos < w.hi {
				return true
			}
		}
		return false
	}
	capturedRoot := func(e ast.Expr) *types.Var {
		root := rootIdent(e)
		if root == nil {
			return nil
		}
		obj, ok := info.ObjectOf(root).(*types.Var)
		if !ok || obj.IsField() {
			return nil
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return nil // the closure's own parameter or local
		}
		return obj
	}
	// confined reports whether the write target is the sanctioned
	// per-slot form: a top-level index store into a slice (or array)
	// — each worker owns its slot. Map index stores stay reportable:
	// concurrent map writes fault regardless of slot.
	confined := func(lhs ast.Expr) bool {
		idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			return false
		}
		switch info.TypeOf(idx.X).Underlying().(type) {
		case *types.Map:
			return false
		default:
			return true
		}
	}
	flag := func(lhs ast.Expr, obj *types.Var) {
		report(lhs.Pos(), "goroutine closure writes captured %s (via %s) without synchronization: use per-slot index writes, a mutex guard, or a channel", obj.Name(), types.ExprString(lhs))
	}
	check := func(lhs ast.Expr) {
		obj := capturedRoot(lhs)
		if obj == nil || guarded(lhs.Pos()) || confined(lhs) {
			return
		}
		flag(lhs, obj)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// A nested go-closure is checked by its own GoStmt visit;
			// descending here would double-report its writes.
			if _, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(n.X)
		}
		return true
	})
}
