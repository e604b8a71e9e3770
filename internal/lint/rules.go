package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DefaultRules returns the project rule set, in reporting order. The
// last two rules are typed-only: they stay silent unless Options.Typed
// loads the go/types layer.
func DefaultRules() []Rule {
	return []Rule{
		determinismRule{},
		mapOrderRule{},
		errTaxonomyRule{},
		ctxFirstRule{},
		goroutineRule{},
		fsConfineRule{},
		artifactAliasRule{},
		sharedCaptureRule{},
		deadcodeRule{},
	}
}

// computeDirs are the packages whose outputs feed content-addressed
// artifacts, wire encodings or the equivalence suite: everything in
// them must recompute bit-identically for a given Config.
var computeDirs = []string{
	"internal/mc", "internal/sta", "internal/vi", "internal/power",
	"internal/variation", "internal/stats", "internal/place",
	"internal/gsim", "internal/pipeline", "internal/service",
	"internal/yield", "internal/tmodel",
}

// rootFlowFiles are the root-package files that define the artifact
// graph and the Flow facade.
var rootFlowFiles = map[string]bool{"graph.go": true, "vipipe.go": true, "yieldgraph.go": true, "tmodelgraph.go": true}

// taxonomyDirs are the packages whose exported APIs participate in
// the flowerr error taxonomy (callers branch on errors.Is, cmds map
// classes to exit codes).
var taxonomyDirs = []string{
	"internal/mc", "internal/sta", "internal/vi", "internal/power",
	"internal/place", "internal/gsim", "internal/stats",
	"internal/pipeline", "internal/service", "internal/yield",
	"internal/tmodel",
}

// schedulerDirs are the only packages allowed to start goroutines:
// their pools own draining, panic recovery and cancellation.
var schedulerDirs = []string{
	"internal/pipeline", "internal/mc", "internal/gsim", "internal/service",
}

func inDirs(f *File, dirs []string) bool {
	for _, d := range dirs {
		if f.Dir == d || strings.HasPrefix(f.Dir, d+"/") {
			return true
		}
	}
	return false
}

func inComputeScope(f *File) bool  { return rootFlowFiles[f.Rel] || inDirs(f, computeDirs) }
func inTaxonomyScope(f *File) bool { return rootFlowFiles[f.Rel] || inDirs(f, taxonomyDirs) }

// pkgName returns the local identifier under which a file imports
// path (def is the path's default package name). ok is false when the
// file does not import it by a usable name.
func pkgName(f *ast.File, path, def string) (string, bool) {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != path {
			continue
		}
		if imp.Name == nil {
			return def, true
		}
		if imp.Name.Name == "_" || imp.Name.Name == "." {
			return "", false
		}
		return imp.Name.Name, true
	}
	return "", false
}

// pkgCall matches a call of the form <local>.<sel> and returns sel.
func pkgCall(call *ast.CallExpr, local string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != local {
		return "", false
	}
	return sel.Sel.Name, true
}

// ---------------------------------------------------------------- //

// determinismRule forbids wall-clock reads, the global math/rand
// source and environment lookups. The clock half applies module-wide:
// internal/obs is the one package allowed to read the wall clock, and
// everything else (schedulers, service, cmds, the root flow) routes
// timing through obs.Now/obs.Since so traced timing never leaks into
// artifact state. Rand and env checks stay confined to the compute
// scope. All randomness must flow through internal/stats/rng.go
// streams derived from Config.Seed; anything else silently poisons
// cache keys and the golden/equivalence suites.
type determinismRule struct{}

// clockDir is the only package allowed to call time.Now/Since/Until.
const clockDir = "internal/obs"

func (determinismRule) Name() string { return "determinism" }
func (determinismRule) Doc() string {
	return "wall-clock reads only in internal/obs (use obs.Now/obs.Since elsewhere); no global math/rand or os.Getenv in compute packages"
}

// globalRandFuncs are the math/rand (and v2) package-level functions
// backed by the shared global source. Constructors (New, NewSource,
// NewPCG, NewZipf) are fine: seeded streams are how determinism is
// achieved.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int64": true, "IntN": true,
	"Int32": true, "Int32N": true, "Int64N": true, "N": true,
	"Uint": true, "Uint32": true, "Uint64": true, "UintN": true,
	"Uint32N": true, "Uint64N": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Seed": true, "Read": true,
}

func (determinismRule) Check(f *File, report ReportFunc) {
	clockScope := f.Dir != clockDir
	computeScope := inComputeScope(f)
	if !clockScope && !computeScope {
		return
	}
	timeName, hasTime := pkgName(f.AST, "time", "time")
	osName, hasOS := pkgName(f.AST, "os", "os")
	randName, hasRand := pkgName(f.AST, "math/rand", "rand")
	if !hasRand {
		randName, hasRand = pkgName(f.AST, "math/rand/v2", "rand")
	}
	hasTime = hasTime && clockScope
	hasOS = hasOS && computeScope
	hasRand = hasRand && computeScope
	if !hasTime && !hasOS && !hasRand {
		return
	}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if hasTime {
			if sel, ok := pkgCall(call, timeName); ok && (sel == "Now" || sel == "Since" || sel == "Until") {
				report(call.Pos(), "time.%s outside internal/obs: route wall-clock reads through obs.Now/obs.Since so timing never leaks into artifact state", sel)
			}
		}
		if hasOS {
			if sel, ok := pkgCall(call, osName); ok && (sel == "Getenv" || sel == "LookupEnv" || sel == "Environ") {
				report(call.Pos(), "os.%s in a deterministic flow package: behavior may not depend on the environment", sel)
			}
		}
		if hasRand {
			if sel, ok := pkgCall(call, randName); ok && globalRandFuncs[sel] {
				report(call.Pos(), "global rand.%s: derive a seeded stream via internal/stats/rng.go instead", sel)
			}
		}
		return true
	})
}

// CheckTyped resolves callees through go/types, so renamed imports
// (clock "time") and indirect aliases cannot dodge the rule the way
// they can dodge the AST import-name match.
func (determinismRule) CheckTyped(prog *Program, pkg *Pkg, f *File, report ReportFunc) {
	clockScope := f.Dir != clockDir
	computeScope := inComputeScope(f)
	if !clockScope && !computeScope {
		return
	}
	info := pkg.Info
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if clockScope {
			if name, ok := pkgFuncCall(info, call, "time"); ok && (name == "Now" || name == "Since" || name == "Until") {
				report(call.Pos(), "time.%s outside internal/obs: route wall-clock reads through obs.Now/obs.Since so timing never leaks into artifact state", name)
			}
		}
		if computeScope {
			if name, ok := pkgFuncCall(info, call, "os"); ok && (name == "Getenv" || name == "LookupEnv" || name == "Environ") {
				report(call.Pos(), "os.%s in a deterministic flow package: behavior may not depend on the environment", name)
			}
			name, ok := pkgFuncCall(info, call, "math/rand")
			if !ok {
				name, ok = pkgFuncCall(info, call, "math/rand/v2")
			}
			if ok && globalRandFuncs[name] {
				report(call.Pos(), "global rand.%s: derive a seeded stream via internal/stats/rng.go instead", name)
			}
		}
		return true
	})
}

// ---------------------------------------------------------------- //

// mapOrderRule flags range loops over maps whose bodies build
// order-sensitive output — slice appends, builder/hash writes —
// without the appended slice being sorted afterwards. Map iteration
// order is randomized per run, so such a loop is exactly the
// encoding/fingerprint killer that breaks wire payload and cache-key
// stability. The rule is AST-only: it fires only when the ranged
// expression provably has a map type in the same function (local
// declaration, composite literal or parameter).
type mapOrderRule struct{}

func (mapOrderRule) Name() string { return "maporder" }
func (mapOrderRule) Doc() string {
	return "no order-sensitive writes (append/Write) inside a range over a map unless the result is sorted"
}

func (mapOrderRule) Check(f *File, report ReportFunc) {
	if !inComputeScope(f) {
		return
	}
	fmtName, hasFmt := pkgName(f.AST, "fmt", "fmt")
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isLocalMap(rs.X) {
				return true
			}
			checkMapRangeBody(fd, rs, f, fmtName, hasFmt, report)
			return true
		})
	}
}

// CheckTyped replaces the file-local map-provenance heuristic with the
// real type of the ranged expression: struct fields, cross-package
// values and chained selectors all resolve, so map ranges the AST
// layer could not prove now get checked too.
func (mapOrderRule) CheckTyped(prog *Program, pkg *Pkg, f *File, report ReportFunc) {
	if !inComputeScope(f) {
		return
	}
	info := pkg.Info
	fmtName, hasFmt := pkgName(f.AST, "fmt", "fmt")
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRangeBody(fd, rs, f, fmtName, hasFmt, report)
			return true
		})
	}
}

func checkMapRangeBody(fd *ast.FuncDecl, rs *ast.RangeStmt, f *File, fmtName string, hasFmt bool, report ReportFunc) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" || len(call.Args) == 0 {
					continue
				}
				target := types.ExprString(n.Lhs[i])
				if types.ExprString(call.Args[0]) != target {
					continue
				}
				root := rootIdent(n.Lhs[i])
				if root == nil || definedWithin(rs.Body, root.Name) {
					continue // accumulator keyed off the map entry itself
				}
				if sortedAfter(fd, rs, target) {
					continue
				}
				report(n.Pos(), "append to %s while ranging over a map: iteration order is random — collect keys, sort, then iterate", target)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "WriteString", "WriteByte", "WriteRune":
					report(n.Pos(), "%s.%s while ranging over a map: output depends on random iteration order — sort the keys first", types.ExprString(sel.X), sel.Sel.Name)
				}
			}
			if hasFmt {
				if name, ok := pkgCall(n, fmtName); ok && (name == "Fprintf" || name == "Fprintln" || name == "Fprint") {
					report(n.Pos(), "fmt.%s while ranging over a map: output depends on random iteration order — sort the keys first", name)
				}
			}
		}
		return true
	})
}

// isLocalMap reports whether expr resolves, within this file, to a
// value of map type: a make(map[...]) or map-literal assignment, a
// map-typed var declaration, or a map-typed parameter.
func isLocalMap(expr ast.Expr) bool {
	id, ok := expr.(*ast.Ident)
	if !ok || id.Obj == nil {
		return false
	}
	switch decl := id.Obj.Decl.(type) {
	case *ast.AssignStmt:
		for i, lhs := range decl.Lhs {
			l, ok := lhs.(*ast.Ident)
			if !ok || l.Obj != id.Obj || i >= len(decl.Rhs) {
				continue
			}
			return isMapExpr(decl.Rhs[i])
		}
	case *ast.ValueSpec:
		if _, ok := decl.Type.(*ast.MapType); ok {
			return true
		}
		for i, name := range decl.Names {
			if name.Obj == id.Obj && i < len(decl.Values) {
				return isMapExpr(decl.Values[i])
			}
		}
	case *ast.Field:
		_, ok := decl.Type.(*ast.MapType)
		return ok
	}
	return false
}

func isMapExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
			_, ok := e.Args[0].(*ast.MapType)
			return ok
		}
	case *ast.CompositeLit:
		_, ok := e.Type.(*ast.MapType)
		return ok
	}
	return false
}

// rootIdent returns the base identifier of x / x.f / x.f[i] chains.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// definedWithin reports whether name is (re)defined by a := inside
// body — an accumulator derived from the map entry, whose per-key
// state is order-independent.
func definedWithin(body *ast.BlockStmt, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// sortedAfter reports whether target is passed to a sort.*/slices.*
// call after the range statement in the same function — the
// collect-then-sort idiom that makes the append order irrelevant.
func sortedAfter(fd *ast.FuncDecl, rs *ast.RangeStmt, target string) bool {
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(arg) == target {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

// ---------------------------------------------------------------- //

// errTaxonomyRule requires exported functions in flow packages to
// return classified errors: flowerr sentinels/constructors or
// %w-wrapping fmt.Errorf — never naked errors.New / fmt.Errorf, which
// callers cannot branch on and cmds cannot map to exit codes.
type errTaxonomyRule struct{}

func (errTaxonomyRule) Name() string { return "errtaxonomy" }
func (errTaxonomyRule) Doc() string {
	return "exported flow APIs return flowerr-classified or %w-wrapped errors, not naked errors.New/fmt.Errorf"
}

func (errTaxonomyRule) Check(f *File, report ReportFunc) {
	if !inTaxonomyScope(f) || f.Dir == "internal/flowerr" {
		return
	}
	errorsName, hasErrors := pkgName(f.AST, "errors", "errors")
	fmtName, hasFmt := pkgName(f.AST, "fmt", "fmt")
	if !hasErrors && !hasFmt {
		return
	}
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !fd.Name.IsExported() {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				call, ok := res.(*ast.CallExpr)
				if !ok {
					continue
				}
				if hasErrors {
					if sel, ok := pkgCall(call, errorsName); ok && sel == "New" {
						report(call.Pos(), "%s returns naked errors.New: use a flowerr constructor (e.g. flowerr.BadInputf) so callers can branch on the class", fd.Name.Name)
					}
				}
				if hasFmt {
					if sel, ok := pkgCall(call, fmtName); ok && sel == "Errorf" && len(call.Args) > 0 {
						if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING && !strings.Contains(lit.Value, "%w") {
							report(call.Pos(), "%s returns fmt.Errorf without %%w: wrap a cause or use a flowerr constructor so the error keeps its class", fd.Name.Name)
						}
					}
				}
			}
			return true
		})
	}
}

// CheckTyped resolves errors.New / fmt.Errorf through go/types
// (aliased imports resolve) and gates on the function actually having
// an error result, so exported helpers that cannot leak a naked error
// into the taxonomy are skipped instead of pattern-matched.
func (errTaxonomyRule) CheckTyped(prog *Program, pkg *Pkg, f *File, report ReportFunc) {
	if !inTaxonomyScope(f) || f.Dir == "internal/flowerr" {
		return
	}
	info := pkg.Info
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !fd.Name.IsExported() {
			continue
		}
		fn, ok := info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Type().(*types.Signature)
		returnsErr := false
		for i := 0; i < sig.Results().Len(); i++ {
			if isErrorType(sig.Results().At(i).Type()) {
				returnsErr = true
			}
		}
		if !returnsErr {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				call, ok := res.(*ast.CallExpr)
				if !ok {
					continue
				}
				if name, ok := pkgFuncCall(info, call, "errors"); ok && name == "New" {
					report(call.Pos(), "%s returns naked errors.New: use a flowerr constructor (e.g. flowerr.BadInputf) so callers can branch on the class", fd.Name.Name)
				}
				if name, ok := pkgFuncCall(info, call, "fmt"); ok && name == "Errorf" && len(call.Args) > 0 {
					if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING && !strings.Contains(lit.Value, "%w") {
						report(call.Pos(), "%s returns fmt.Errorf without %%w: wrap a cause or use a flowerr constructor so the error keeps its class", fd.Name.Name)
					}
				}
			}
			return true
		})
	}
}

// ---------------------------------------------------------------- //

// ctxFirstRule enforces the context conventions of the flow: exported
// APIs that take a context.Context take it as the first parameter and
// actually consult it, and in the sample-loop engines (mc, gsim) a
// ctx-taking function with loops must poll cancellation from inside a
// loop (or its worker closures) so runs stay interruptible.
type ctxFirstRule struct{}

func (ctxFirstRule) Name() string { return "ctxfirst" }
func (ctxFirstRule) Doc() string {
	return "exported blocking APIs take context.Context first and consult it; mc/gsim loops poll cancellation"
}

func (ctxFirstRule) Check(f *File, report ReportFunc) {
	if !inComputeScope(f) {
		return
	}
	ctxPkg, ok := pkgName(f.AST, "context", "context")
	if !ok {
		return
	}
	loopScope := f.Dir == "internal/mc" || f.Dir == "internal/gsim"
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Type.Params == nil {
			continue
		}
		idx, ctxIdent := ctxParam(fd, func(t ast.Expr) bool { return isCtxType(t, ctxPkg) })
		reportCtxFunc(f, fd, idx, ctxIdent, loopScope, report)
	}
}

// CheckTyped detects the context parameter through go/types, so
// renamed context imports and type aliases resolve.
func (ctxFirstRule) CheckTyped(prog *Program, pkg *Pkg, f *File, report ReportFunc) {
	if !inComputeScope(f) {
		return
	}
	info := pkg.Info
	loopScope := f.Dir == "internal/mc" || f.Dir == "internal/gsim"
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Type.Params == nil {
			continue
		}
		idx, ctxIdent := ctxParam(fd, func(t ast.Expr) bool { return isContextType(info.TypeOf(t)) })
		reportCtxFunc(f, fd, idx, ctxIdent, loopScope, report)
	}
}

// ctxParam locates the first context-typed parameter of fd by flat
// index, returning -1 when there is none.
func ctxParam(fd *ast.FuncDecl, isCtx func(ast.Expr) bool) (int, string) {
	idx := -1
	var ctxIdent string
	flat := 0
	for _, field := range fd.Type.Params.List {
		names := len(field.Names)
		if names == 0 {
			names = 1
		}
		if idx < 0 && isCtx(field.Type) {
			idx = flat
			if len(field.Names) > 0 {
				ctxIdent = field.Names[0].Name
			}
		}
		flat += names
	}
	return idx, ctxIdent
}

// reportCtxFunc is the shared reporting tail of both ctxfirst modes.
func reportCtxFunc(f *File, fd *ast.FuncDecl, idx int, ctxIdent string, loopScope bool, report ReportFunc) {
	if idx < 0 {
		return
	}
	if fd.Name.IsExported() && idx > 0 {
		report(fd.Name.Pos(), "%s takes context.Context at position %d: blocking APIs take ctx as the first parameter", fd.Name.Name, idx+1)
	}
	if ctxIdent == "" || ctxIdent == "_" {
		return
	}
	if fd.Name.IsExported() && !identUsed(fd.Body, ctxIdent) {
		report(fd.Name.Pos(), "%s accepts %s but never consults it: check cancellation or pass it on", fd.Name.Name, ctxIdent)
		return
	}
	if loopScope && hasForLoop(fd.Body) && !ctxInLoop(fd.Body, ctxIdent) {
		report(fd.Name.Pos(), "%s loops without polling %s: sample/iteration loops in %s must check cancellation", fd.Name.Name, ctxIdent, f.Dir)
	}
}

func isCtxType(t ast.Expr, ctxPkg string) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == ctxPkg
}

func identUsed(body *ast.BlockStmt, name string) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			used = true
		}
		return !used
	})
	return used
}

func hasForLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// ctxInLoop reports whether name is referenced inside a for/range
// body or inside a function literal (worker closures run the loop's
// work and poll there).
func ctxInLoop(body *ast.BlockStmt, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.ForStmt:
			if identUsed(n.Body, name) {
				found = true
			}
		case *ast.RangeStmt:
			if identUsed(n.Body, name) {
				found = true
			}
		case *ast.FuncLit:
			if identUsed(n.Body, name) {
				found = true
			}
		}
		return !found
	})
	return found
}

// ---------------------------------------------------------------- //

// goroutineRule confines goroutine creation to the sanctioned
// scheduler packages, whose pools own panic recovery, draining and
// cancellation. A stray `go func` elsewhere escapes all three —
// unless the surrounding function proves structured confinement one
// of two ways. The WaitGroup proof: wg.Add before the go statement, a
// deferred wg.Done as the closure's first act, and wg.Wait afterwards
// in the same function — that joins every worker before returning,
// which is exactly what the scheduler pools guarantee. The
// channel-confined proof: the launched closure assigns only to names
// it defines itself and communicates over at least one captured
// channel — a pure pump (broadcast dispatcher, ticker sampler,
// result forwarder) whose lifetime is governed by the channels it
// serves, so draining the channels joins it. Both proofs are lexical
// and hold in the AST and typed modes alike.
type goroutineRule struct{}

func (goroutineRule) Name() string { return "goroutine" }
func (goroutineRule) Doc() string {
	return "goroutines start only in the scheduler packages (internal/pipeline, mc, gsim, service), under a full WaitGroup Add/Done/Wait join in one function, or as a channel-confined pump (no captured writes, communicates over a captured channel)"
}

func (goroutineRule) Check(f *File, report ReportFunc) {
	if inDirs(f, schedulerDirs) {
		return
	}
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok && !wgConfined(fd.Body, g) && !chanConfined(g) {
				report(g.Pos(), "goroutine outside the sanctioned schedulers (%s): route concurrency through their pools, join it with a WaitGroup (Add before go, defer Done inside, Wait after), or make it a channel-confined pump (no captured writes, communicates over a captured channel)", strings.Join(schedulerDirs, ", "))
			}
			return true
		})
	}
}

// wgConfined reports whether the goroutine is provably joined by a
// WaitGroup inside body: the launched closure defers <wg>.Done(),
// <wg>.Add(...) appears before the go statement and <wg>.Wait() after
// it, all on the same identifier. The match is lexical (same name in
// one function), which one file cannot fake without shadowing — and
// shadowing a WaitGroup mid-function would break compilation of the
// Add/Wait pair anyway.
func wgConfined(body *ast.BlockStmt, g *ast.GoStmt) bool {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	// Collect the names whose Done is deferred inside the closure.
	done := make(map[string]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if sel, ok := ds.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			if root := rootIdent(sel.X); root != nil {
				done[root.Name] = true
			}
		}
		return true
	})
	if len(done) == 0 {
		return false
	}
	added, waited := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		root := rootIdent(sel.X)
		if root == nil || !done[root.Name] {
			return true
		}
		switch {
		case sel.Sel.Name == "Add" && call.Pos() < g.Pos():
			added = true
		case sel.Sel.Name == "Wait" && call.Pos() > g.End():
			waited = true
		}
		return !(added && waited)
	})
	return added && waited
}

// chanConfined reports whether the goroutine is a channel-confined
// pump: a closure that (a) assigns only to names it defines itself —
// parameters, := definitions (including select receive clauses and
// range variables) and var declarations — and (b) communicates over
// at least one channel it captured from the enclosing scope. Such a
// goroutine's only effect on shared state flows through channels, and
// its lifetime is governed by the channels it serves (close them and
// it ends), so it needs neither a pool nor a WaitGroup join. Captured
// method calls (atomics, close, callbacks) are permitted — the proof
// forbids captured *assignments*, which is what races look like under
// this repo's shared-capture rule.
func chanConfined(g *ast.GoStmt) bool {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	// Names the closure owns: parameters plus everything it defines.
	local := make(map[string]bool)
	if lit.Type.Params != nil {
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				local[name.Name] = true
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				for _, lhs := range v.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						local[id.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			if v.Tok == token.DEFINE {
				if id, ok := v.Key.(*ast.Ident); ok {
					local[id.Name] = true
				}
				if id, ok := v.Value.(*ast.Ident); ok {
					local[id.Name] = true
				}
			}
		case *ast.GenDecl:
			if v.Tok == token.VAR {
				for _, spec := range v.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							local[id.Name] = true
						}
					}
				}
			}
		}
		return true
	})
	confined, captured := true, false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range v.Lhs {
				id := rootIdent(lhs)
				if id != nil && id.Name != "_" && !local[id.Name] {
					confined = false
				}
			}
		case *ast.IncDecStmt:
			if id := rootIdent(v.X); id != nil && !local[id.Name] {
				confined = false
			}
		case *ast.SendStmt:
			if id := chanRoot(v.Chan); id != nil && !local[id.Name] {
				captured = true
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				if id := chanRoot(v.X); id != nil && !local[id.Name] {
					captured = true
				}
			}
		}
		return true
	})
	return confined && captured
}

// chanRoot is rootIdent extended through one call: `<-ctx.Done()` and
// `<-time.After(d)` receive from a channel the call mints off its
// receiver, so the operand roots at the receiver (ctx, time). A
// channel obtained from a captured source is still a captured
// channel for the confinement proof.
func chanRoot(e ast.Expr) *ast.Ident {
	if id := rootIdent(e); id != nil {
		return id
	}
	if call, ok := e.(*ast.CallExpr); ok {
		return rootIdent(call.Fun)
	}
	return nil
}

// ---------------------------------------------------------------- //

// fsConfineRule confines direct filesystem IO in the compute scope to
// the store layer: internal/pipeline/fs.go is the one file allowed to
// call os file APIs, because everything durable must go through the
// pipeline.FS seam — that is where crash-safety (tmp + fsync + atomic
// rename), fault injection and the degraded-mode accounting live. An
// os.WriteFile elsewhere in a compute package silently bypasses all
// three.
type fsConfineRule struct{}

// fsConfineAllowed are the compute-scope files that implement the FS
// seam itself.
var fsConfineAllowed = map[string]bool{"internal/pipeline/fs.go": true}

// osFSFuncs are the os package file APIs the rule confines.
var osFSFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "Remove": true, "RemoveAll": true,
	"Rename": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"ReadDir": true, "Stat": true, "Lstat": true, "Chmod": true,
	"Chtimes": true, "Truncate": true, "Link": true, "Symlink": true,
}

func (fsConfineRule) Name() string { return "fsconfine" }
func (fsConfineRule) Doc() string {
	return "filesystem IO in compute packages goes through the pipeline.FS store seam, not direct os calls"
}

func (fsConfineRule) Check(f *File, report ReportFunc) {
	if !inComputeScope(f) || fsConfineAllowed[f.Rel] {
		return
	}
	osName, ok := pkgName(f.AST, "os", "os")
	if !ok {
		return
	}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := pkgCall(call, osName); ok && osFSFuncs[sel] {
			report(call.Pos(), "os.%s in a compute package: route filesystem IO through pipeline.FS (internal/pipeline/fs.go) so it stays crash-safe, fault-injectable and degradation-aware", sel)
		}
		return true
	})
}

// CheckTyped resolves os calls through go/types so an aliased import
// cannot hide direct filesystem IO from the confinement check.
func (fsConfineRule) CheckTyped(prog *Program, pkg *Pkg, f *File, report ReportFunc) {
	if !inComputeScope(f) || fsConfineAllowed[f.Rel] {
		return
	}
	info := pkg.Info
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := pkgFuncCall(info, call, "os"); ok && osFSFuncs[name] {
			report(call.Pos(), "os.%s in a compute package: route filesystem IO through pipeline.FS (internal/pipeline/fs.go) so it stays crash-safe, fault-injectable and degradation-aware", name)
		}
		return true
	})
}
