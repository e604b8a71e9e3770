package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// artifactAliasRule enforces the frozen-artifact invariant the whole
// caching stack rests on: a value under a content-addressed key must
// stay bit-identical forever, because the LRU, the DiskStore and
// every concurrent job share the same instance. The rule seeds the
// dataflow engine with every way code obtains a published artifact —
// pipeline.Store.Do results, Graph.Request/RequestOne results, the
// deps map of a registered compute function — and reports any write
// that provably lands in artifact-reachable memory: field/element
// stores, in-place append/copy/delete, and calls that pass an
// artifact to a function whose summary says it writes through that
// parameter. The second half checks the producer side: a compute
// function must not publish a captured scratch buffer it also
// mutates, or the next run will silently rewrite the cached bytes.
type artifactAliasRule struct{}

// artifactBit is the seed bit marking artifact-aliasing values in the
// dataflow mask (parameter bits stay below maxSumParams).
const artifactBit = uint64(1) << 63

func (artifactAliasRule) Name() string { return "artifactalias" }
func (artifactAliasRule) Doc() string {
	return "published artifacts (Store.Do / Graph.Request results, compute deps) are frozen: no writes through them, and compute funcs must not publish mutated scratch buffers"
}

func (artifactAliasRule) Check(prog *Program, pkg *Pkg, f *File, report ReportFunc) {
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		checkArtifactWrites(prog, pkg, fd, report)
		checkComputeRetention(prog, pkg, fd, report)
	}
}

// artifactSource returns the artifact bit when call produces a
// published artifact: Store.Do on any pipeline.Store implementation,
// or Graph.Request/RequestOne.
func artifactSource(prog *Program, info *types.Info, call *ast.CallExpr) uint64 {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return 0
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0
	}
	recv := info.TypeOf(sel.X)
	if recv == nil {
		return 0
	}
	switch fn.Name() {
	case "Do":
		if prog.storeIface != nil && (types.Implements(recv, prog.storeIface) ||
			types.Implements(types.NewPointer(recv), prog.storeIface)) {
			return artifactBit
		}
	case "Request", "RequestOne":
		if prog.graphNamed == nil {
			return 0
		}
		t := recv
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj() == prog.graphNamed.Obj() {
			return artifactBit
		}
	}
	return 0
}

// depsParams collects the deps parameters of every compute-shaped
// function in fd: fd itself if it has the compute signature, plus any
// nested compute FuncLits (the registered Node.Compute closures).
func depsParams(prog *Program, info *types.Info, fd *ast.FuncDecl) map[*types.Var]uint64 {
	seeds := make(map[*types.Var]uint64)
	seed := func(params *ast.FieldList, sig *types.Signature) {
		if !prog.isComputeSig(sig) || params == nil {
			return
		}
		// The deps map is the flattened second parameter.
		flat := 0
		for _, field := range params.List {
			names := field.Names
			if len(names) == 0 {
				flat++
				continue
			}
			for _, name := range names {
				if flat == 1 {
					if obj, ok := info.Defs[name].(*types.Var); ok {
						seeds[obj] = artifactBit
					}
				}
				flat++
			}
		}
	}
	if sig, ok := info.TypeOf(fd.Name).(*types.Signature); ok {
		seed(fd.Type.Params, sig)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		if sig, ok := info.TypeOf(lit).(*types.Signature); ok {
			seed(lit.Type.Params, sig)
		}
		return true
	})
	return seeds
}

// checkArtifactWrites runs the taint pass over one function and
// reports writes that reach artifact memory.
func checkArtifactWrites(prog *Program, pkg *Pkg, fd *ast.FuncDecl, report ReportFunc) {
	fc := &flowCtx{
		prog:  prog,
		info:  pkg.Info,
		seeds: depsParams(prog, pkg.Info, fd),
		sourceMask: func(call *ast.CallExpr) uint64 {
			return artifactSource(prog, pkg.Info, call)
		},
		onWrite: func(pos token.Pos, mask uint64, op, target string) {
			if mask&artifactBit == 0 {
				return
			}
			switch {
			case op == "assign":
				report(pos, "write through %s: it aliases a published artifact (store result or compute dep) shared by every cached consumer — deep-copy before mutating", target)
			case op == "append":
				report(pos, "append to %s may write the published artifact's backing array in place — copy the slice before appending", target)
			case op == "copy" || op == "delete" || op == "clear":
				report(pos, "%s on %s mutates a published artifact shared by every cached consumer — deep-copy first", op, target)
			case strings.HasPrefix(op, "call "):
				report(pos, "%s aliases a published artifact and %s writes through that parameter — pass a copy", target, strings.TrimPrefix(op, "call "))
			}
		},
	}
	fc.run(fd.Body)
}

// checkComputeRetention flags compute functions that return values
// aliasing a captured variable the code also mutates: the classic
// reused-scratch-buffer escape that rewrites a cached artifact on the
// next run.
func checkComputeRetention(prog *Program, pkg *Pkg, fd *ast.FuncDecl, report ReportFunc) {
	info := pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		sig, ok := info.TypeOf(lit).(*types.Signature)
		if !ok || !prog.isComputeSig(sig) {
			return true
		}
		written := mutatedCaptures(info, fd, lit)
		if len(written) == 0 {
			return true
		}
		seeds := make(map[*types.Var]uint64)
		names := make(map[uint64]string)
		bit := uint64(1) << maxSumParams
		for _, obj := range written {
			seeds[obj] = bit
			names[bit] = obj.Name()
			bit <<= 1
			if bit == artifactBit {
				break
			}
		}
		fc := &flowCtx{prog: prog, info: info, seeds: seeds}
		fc.run(lit.Body)
		// Escapes count in both domains: returning the buffer itself
		// or a fresh struct holding it publishes the memory either way.
		var escaped uint64
		for _, r := range fc.rets {
			escaped |= r.any()
		}
		var leaks []string
		for b, name := range names {
			if escaped&b != 0 {
				leaks = append(leaks, name)
			}
		}
		if len(leaks) > 0 {
			sort.Strings(leaks)
			report(lit.Pos(), "compute func publishes captured scratch %s that it also mutates: the next run rewrites the cached artifact in place — allocate per call or copy into the result", strings.Join(leaks, ", "))
		}
		return true
	})
}

// mutatedCaptures lists reference-carrying variables captured by lit
// (declared in the enclosing function, not package scope) that the
// enclosing function mutates: element/field stores through them, or
// self-feeding appends (buf = append(buf, ...)).
func mutatedCaptures(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) []*types.Var {
	captured := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || !containsRef(obj.Type()) {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // the literal's own parameter or local
		}
		if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
			return true // package-level scope
		}
		captured[obj] = true
		return true
	})
	if len(captured) == 0 {
		return nil
	}
	mutated := make(map[*types.Var]bool)
	markRoot := func(e ast.Expr) {
		root := rootIdent(e)
		if root == nil {
			return
		}
		if obj, ok := info.ObjectOf(root).(*types.Var); ok && captured[obj] {
			mutated[obj] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					obj, _ := info.ObjectOf(id).(*types.Var)
					if obj == nil || !captured[obj] {
						continue
					}
					// Rebinding only counts when it feeds the buffer
					// back into itself (append-style accumulation);
					// a fresh allocation each call is confinement.
					if i < len(n.Rhs) && selfFeeding(info, n.Rhs[i], obj) {
						mutated[obj] = true
					}
					continue
				}
				markRoot(lhs)
			}
		case *ast.IncDecStmt:
			if _, ok := ast.Unparen(n.X).(*ast.Ident); !ok {
				markRoot(n.X)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
					switch id.Name {
					case "copy", "delete", "clear":
						if len(n.Args) > 0 {
							markRoot(n.Args[0])
						}
					}
				}
			}
		}
		return true
	})
	out := make([]*types.Var, 0, len(mutated))
	for obj := range mutated {
		out = append(out, obj)
	}
	// Deterministic order for stable diagnostics.
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// selfFeeding reports whether rhs references obj (buf = append(buf,
// ...), buf = buf[:0], ...), meaning the old backing memory lives on.
func selfFeeding(info *types.Info, rhs ast.Expr, obj *types.Var) bool {
	found := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o, _ := info.ObjectOf(id).(*types.Var); o == obj {
				found = true
			}
		}
		return !found
	})
	return found
}
