package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Program is the typed layer over one lint tree: every package of the
// walked module type-checked in dependency order, plus the dataflow
// summaries the typed rules consult. It is built entirely from the
// standard library — go/parser for syntax, go/types for checking, and
// importer.Default for the export data of standard-library imports —
// so the linter stays free of external dependencies.
type Program struct {
	Fset   *token.FileSet
	Module string // module path from go.mod ("lintroot" when absent)
	Pkgs   []*Pkg // dependency order: a package follows everything it imports
	ByDir  map[string]*Pkg

	// Sums holds one dataflow summary per function or method declared
	// anywhere in the program, keyed by its types object.
	Sums map[*types.Func]*FuncSum

	// Named pipeline types resolved once, for the artifact rules. Nil
	// when the tree does not contain the pipeline package (then the
	// rules that need them stay silent).
	storeIface  *types.Interface // pipeline.Store
	graphNamed  *types.Named     // pipeline.Graph
	computeSigs []*types.Signature

	// dead is the deadcode rule's verdict, computed on first use.
	dead map[*types.Func]bool
}

// Pkg is one type-checked package of the lint tree.
type Pkg struct {
	Dir      string // slash-separated dir relative to the lint root ("" for the root package)
	Path     string // import path (Module + "/" + Dir)
	Files    []*File
	Types    *types.Package
	Info     *types.Info
	Complete bool  // type-checked without errors; typed rules require it
	LoadErr  error // first type error when !Complete

	// Harness is the root package's paper harness (harnessFile),
	// type-checked with the package so the deadcode rule can root its
	// benchmarks. No rule lints it; nil elsewhere or when absent.
	Harness *ast.File
}

// harnessFile is the root package's in-package test file that
// regenerates the paper's tables and figures. Unlike every other
// _test.go file it is loaded: what it reaches is not dead code.
const harnessFile = "bench_test.go"

// asts returns the package's syntax trees, the harness included.
func (p *Pkg) asts() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files)+1)
	for _, f := range p.Files {
		out = append(out, f.AST)
	}
	if p.Harness != nil {
		out = append(out, p.Harness)
	}
	return out
}

// moduleOf reads the module path out of root/go.mod with a minimal
// hand parse (the directive grammar is a single token). A missing or
// unreadable go.mod yields "lintroot": module-internal imports then
// never resolve, the typed rules see no project types, and the AST
// layer carries the run.
func moduleOf(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "lintroot"
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if f := strings.Fields(rest); len(f) > 0 {
				return strings.Trim(f[0], `"`)
			}
		}
	}
	return "lintroot"
}

// progImporter resolves imports during type checking: module-internal
// paths come from the packages the loader has already checked
// (dependency order guarantees they exist by the time they are
// asked for), everything else falls back to the compiler's export
// data via importer.Default.
type progImporter struct {
	prog *Program
	std  types.Importer
}

func (pi *progImporter) Import(path string) (*types.Package, error) {
	if dir, ok := pi.prog.dirOf(path); ok {
		p := pi.prog.ByDir[dir]
		if p == nil || p.Types == nil {
			return nil, fmt.Errorf("lint: module package %q not loaded (outside the lint root?)", path)
		}
		return p.Types, nil
	}
	return pi.std.Import(path)
}

// dirOf maps a module-internal import path to its directory relative
// to the lint root; ok is false for external paths.
func (p *Program) dirOf(path string) (string, bool) {
	if path == p.Module {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, p.Module+"/"); ok {
		return rest, true
	}
	return "", false
}

// loadProgram builds the typed layer over already-parsed files. It
// never fails hard: a package that does not type-check is carried
// with Complete=false (its first error surfaces as a diagnostic and
// its files fall back to the AST rules), so one broken corner cannot
// blind the linter to the rest of the tree.
func loadProgram(root string, fset *token.FileSet, files []*File) *Program {
	prog := &Program{
		Fset:   fset,
		Module: moduleOf(root),
		ByDir:  make(map[string]*Pkg),
		Sums:   make(map[*types.Func]*FuncSum),
	}
	for _, f := range files {
		p := prog.ByDir[f.Dir]
		if p == nil {
			dir := f.Dir
			path := prog.Module
			if dir != "" {
				path = prog.Module + "/" + filepath.ToSlash(dir)
			}
			p = &Pkg{Dir: dir, Path: path}
			prog.ByDir[f.Dir] = p
		}
		p.Files = append(p.Files, f)
	}
	if p := prog.ByDir[""]; p != nil {
		path := filepath.Join(root, harnessFile)
		if f, err := parser.ParseFile(fset, path, nil, parser.ParseComments); err == nil {
			p.Harness = f
		}
	}

	// Dependency-order the packages: depth-first over module-internal
	// imports, visiting dependencies before dependents. An import
	// cycle is a compile error anyway; the DFS just breaks it and the
	// type checker reports it on the offending package.
	dirs := make([]string, 0, len(prog.ByDir))
	for dir := range prog.ByDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	visited := make(map[string]bool, len(dirs))
	var visit func(dir string)
	visit = func(dir string) {
		if visited[dir] {
			return
		}
		visited[dir] = true
		p := prog.ByDir[dir]
		deps := make(map[string]bool)
		for _, f := range p.asts() {
			for _, imp := range f.Imports {
				if d, ok := prog.dirOf(strings.Trim(imp.Path.Value, `"`)); ok && d != dir {
					if _, exists := prog.ByDir[d]; exists {
						deps[d] = true
					}
				}
			}
		}
		ordered := make([]string, 0, len(deps))
		for d := range deps {
			ordered = append(ordered, d)
		}
		sort.Strings(ordered)
		for _, d := range ordered {
			visit(d)
		}
		prog.Pkgs = append(prog.Pkgs, p)
	}
	for _, dir := range dirs {
		visit(dir)
	}

	imp := &progImporter{prog: prog, std: importer.Default()}
	for _, p := range prog.Pkgs {
		checkPkg(p, fset, imp)
	}
	prog.resolvePipelineTypes()
	for _, p := range prog.Pkgs {
		if p.Complete {
			summarizePkg(prog, p)
		}
	}
	return prog
}

// checkPkg type-checks one package against the program importer.
func checkPkg(p *Pkg, fset *token.FileSet, imp types.Importer) {
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var firstErr error
	conf := types.Config{
		Importer:                 imp,
		FakeImportC:              true,
		DisableUnusedImportCheck: true,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(p.Path, fset, p.asts(), p.Info)
	p.Types = pkg
	if err == nil && firstErr == nil {
		p.Complete = true
		return
	}
	if firstErr == nil {
		firstErr = err
	}
	p.LoadErr = firstErr
}

// resolvePipelineTypes finds the pipeline package's Store interface,
// Graph type and Node.Compute signature wherever the module mounts it
// (matched by the stable "internal/pipeline" path suffix, so fixture
// corpora and the real tree resolve the same way).
func (p *Program) resolvePipelineTypes() {
	for _, pkg := range p.Pkgs {
		if !pkg.Complete || pkg.Types == nil {
			continue
		}
		if pkg.Dir != "internal/pipeline" && !strings.HasSuffix(pkg.Path, "/internal/pipeline") {
			continue
		}
		scope := pkg.Types.Scope()
		if obj, ok := scope.Lookup("Store").(*types.TypeName); ok {
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
				p.storeIface = iface
			}
		}
		if obj, ok := scope.Lookup("Graph").(*types.TypeName); ok {
			if named, ok := obj.Type().(*types.Named); ok {
				p.graphNamed = named
			}
		}
		if obj, ok := scope.Lookup("Node").(*types.TypeName); ok {
			if st, ok := obj.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if f.Name() != "Compute" {
						continue
					}
					if sig, ok := f.Type().(*types.Signature); ok {
						p.computeSigs = append(p.computeSigs, sig)
					}
				}
			}
		}
		return
	}
}

// isComputeSig reports whether sig is the pipeline compute-function
// shape: func(context.Context, map[string]any) (any, error). Matched
// structurally so compute helpers declared as plain functions count
// even when the Node type is out of scope.
func (p *Program) isComputeSig(sig *types.Signature) bool {
	if sig == nil || sig.Params().Len() != 2 || sig.Results().Len() != 2 {
		return false
	}
	if !isContextType(sig.Params().At(0).Type()) {
		return false
	}
	m, ok := sig.Params().At(1).Type().Underlying().(*types.Map)
	if !ok {
		return false
	}
	if b, ok := m.Key().Underlying().(*types.Basic); !ok || b.Kind() != types.String {
		return false
	}
	if iface, ok := m.Elem().Underlying().(*types.Interface); !ok || !iface.Empty() {
		return false
	}
	if iface, ok := sig.Results().At(0).Type().Underlying().(*types.Interface); !ok || !iface.Empty() {
		return false
	}
	return isErrorType(sig.Results().At(1).Type())
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// calleeOf resolves the *types.Func a call statically dispatches to,
// or nil for calls through function values, closures and built-ins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// pkgFuncCall reports whether call is a package-level function call
// into pkgPath (not a method), returning the function name.
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	return fn.Name(), true
}
