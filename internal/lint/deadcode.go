package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// deadcodeRule reports every function and method that no entry point
// reaches, over one use graph of the typed program: every use of a
// function is an edge (a call, a function or method value, a method
// expression, a generic instance, resolved to its origin). The roots
// are main and init of every package, every package-level
// initializer, the root package's exported functions and methods, and
// the paper harness (harnessFile); no other _test.go file is loaded,
// so code only tests reach is dead. Interface calls resolve by name
// and err toward reached: a method counts when its type's method set
// holds every method name of an interface the program declares or
// uses, or when the standard library finds it by type assertion
// (dynamicMethods).
//
// A //lint:ignore deadcode <reason> on a declaration suppresses its
// finding and roots it, so a kept test-support entry point costs one
// directive, not one per helper; the directive goes stale once
// anything else reaches the declaration. The rule is silent while any
// package fails to type-check, since it cannot see that package's
// uses.
type deadcodeRule struct{}

func (deadcodeRule) Name() string { return "deadcode" }
func (deadcodeRule) Doc() string {
	return "every function and method is reached from a main, an init, a package-level initializer, the root package's exported API or the paper harness; //lint:ignore deadcode roots a kept entry point"
}

func (deadcodeRule) Check(prog *Program, pkg *Pkg, f *File, report ReportFunc) {
	if prog.dead == nil {
		prog.dead = unreached(prog)
	}
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && prog.dead[fn] {
			report(fd.Name.Pos(), "%s is unreached: no main, init, package-level initializer, root-package export or paper benchmark uses it; delete it, or root a kept entry point with //lint:ignore deadcode <reason>", fn.FullName())
		}
	}
}

// dynamicMethods are the methods the standard library looks up by type
// assertion inside its own code (fmt, errors, io.Copy, the encoding
// packages, math/rand's Source64), where no interface naming them
// appears in the program.
var dynamicMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As", "WriteTo", "ReadFrom",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText", "MarshalBinary",
	"UnmarshalBinary", "GobEncode", "GobDecode", "Uint64",
}

// useGraph maps each function to the functions it uses. The nil key
// stands for the roots.
type useGraph struct {
	edges map[*types.Func][]*types.Func
	decls []*types.Func // functions declared with a body in linted files
	kept  []*types.Func // declarations carrying //lint:ignore deadcode
}

// unreached returns the functions no root reaches, plus each kept
// declaration that only its own directive roots: the finding that
// directive suppresses. It is empty while a package fails to
// type-check.
func unreached(prog *Program) map[*types.Func]bool {
	dead := make(map[*types.Func]bool)
	for _, p := range prog.Pkgs {
		if !p.Complete {
			return dead
		}
	}
	g := &useGraph{edges: make(map[*types.Func][]*types.Func)}
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			ignores, _ := parseIgnores(f, map[string]bool{deadcodeRule{}.Name(): true})
			kept := make(map[int]bool, len(ignores))
			for _, ig := range ignores {
				kept[ig.target] = true
			}
			g.addFile(prog, p, f.AST, kept)
		}
		if p.Harness != nil {
			g.addUses(p.Info, nil, p.Harness)
		}
	}
	g.addInterfaceMethods(prog)
	live := g.reach(g.kept)
	for _, fn := range g.decls {
		if !live[fn] {
			dead[fn] = true
		}
	}
	for i, k := range g.kept {
		others := append(append([]*types.Func(nil), g.kept[:i]...), g.kept[i+1:]...)
		if !g.reach(others)[k] {
			dead[k] = true
		}
	}
	return dead
}

// reach returns every function reachable from the roots and extra.
func (g *useGraph) reach(extra []*types.Func) map[*types.Func]bool {
	live := make(map[*types.Func]bool)
	work := append(append([]*types.Func(nil), g.edges[nil]...), extra...)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if !live[fn] {
			live[fn] = true
			work = append(work, g.edges[fn]...)
		}
	}
	return live
}

// addFile records one file's declarations, the uses inside them, and
// its roots; kept holds the lines a deadcode directive targets.
func (g *useGraph) addFile(prog *Program, p *Pkg, f *ast.File, kept map[int]bool) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			g.addUses(p.Info, nil, decl) // package-level initializers are roots
			continue
		}
		fn, ok := p.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		g.addUses(p.Info, fn, fd)
		if fd.Body != nil {
			g.decls = append(g.decls, fn)
		}
		if name := fn.Name(); fd.Recv == nil && (name == "main" || name == "init") || p.Dir == "" && fn.Exported() {
			g.edges[nil] = append(g.edges[nil], fn)
		}
		if kept[prog.Fset.Position(fd.Name.Pos()).Line] {
			g.kept = append(g.kept, fn)
		}
	}
}

// addUses adds an edge from `from` to every function used inside n.
func (g *useGraph) addUses(info *types.Info, from *types.Func, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				g.edges[from] = append(g.edges[from], fn.Origin())
			}
		}
		return true
	})
}

// addInterfaceMethods roots every method an interface call may
// dispatch to: on each named type, the methods of every interface the
// program declares or uses whose method names its pointer method set
// all holds (names, not signatures, so generic types count too), and
// the methods the standard library finds dynamically.
func (g *useGraph) addInterfaceMethods(prog *Program) {
	ifaces := make(map[string][]string) // method names, keyed by their join
	seen := make(map[types.Type]bool)
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			walk(t.Underlying())
		case *types.Interface:
			names := make([]string, t.NumMethods())
			for i := range names {
				names[i] = t.Method(i).Name()
				walk(t.Method(i).Type())
			}
			ifaces[strings.Join(names, ",")] = names
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, channel
			walk(t.Elem())
		}
	}
	var named []*types.TypeName
	for _, p := range prog.Pkgs {
		for _, tv := range p.Info.Types {
			walk(tv.Type)
		}
		for _, obj := range p.Info.Uses {
			walk(obj.Type())
		}
		for _, obj := range p.Info.Defs {
			if obj != nil {
				walk(obj.Type())
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn)
			}
		}
	}
	for _, tn := range named {
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		methods := make(map[string]*types.Func, ms.Len())
		for i := 0; i < ms.Len(); i++ {
			if fn, ok := ms.At(i).Obj().(*types.Func); ok {
				methods[fn.Name()] = fn.Origin()
			}
		}
		roots := append([]string(nil), dynamicMethods...)
		for _, names := range ifaces {
			all := true
			for _, n := range names {
				all = all && methods[n] != nil
			}
			if all {
				roots = append(roots, names...)
			}
		}
		for _, n := range roots {
			if fn := methods[n]; fn != nil {
				g.edges[nil] = append(g.edges[nil], fn)
			}
		}
	}
}
