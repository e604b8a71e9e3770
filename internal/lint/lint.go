// Package lint is the repo's stdlib-only static-analysis framework:
// it type-checks every package in the tree and runs project-specific
// rules that enforce the invariants no compiler checks — artifact
// determinism (content-addressed caches and the equivalence suite
// depend on bit-identical recomputation), the flowerr error taxonomy,
// context plumbing, goroutine hygiene, artifact ownership and least
// code.
//
// Findings can be suppressed in source with a directive comment
//
//	//lint:ignore <rule> <reason>
//
// placed either at the end of the offending line or on its own line
// immediately above it. A directive with an unknown rule name or a
// missing reason is itself a finding; in strict mode a directive that
// suppresses nothing (stale after a refactor) is reported too.
//
// There is one layer, standard-library only: go/parser reads the tree,
// go/types checks the module's packages in dependency order (standard
// library imports come from the compiler's export data, which one
// `go list -export` per run locates) and a per-function dataflow pass
// builds lightweight interprocedural summaries: which parameters a
// function writes through, which results alias which parameters. Every
// rule resolves callees, map types and context parameters through
// go/types, and three rest on the program as a whole: artifactalias
// (writes through published artifacts, compute functions leaking
// mutated scratch buffers), sharedcapture (goroutine closures writing
// captured state without proof of confinement) and deadcode (functions
// no entry point reaches). A package that does not type-check is
// reported once, and no rule runs on its files.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vipipe/internal/flowerr"
)

// Diagnostic is one finding, positioned relative to the lint root.
type Diagnostic struct {
	File string `json:"file"` // slash-separated path relative to the root
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Msg)
}

// File is one parsed source file handed to rules.
type File struct {
	Fset *token.FileSet
	AST  *ast.File
	Src  []byte
	Rel  string // slash-separated path relative to the lint root
	Dir  string // package directory of Rel ("" for the root package)
}

// ReportFunc records a finding at a position inside the current file.
type ReportFunc func(pos token.Pos, format string, args ...any)

// Rule is one pluggable check.
type Rule interface {
	// Name is the stable identifier used in diagnostics and
	// //lint:ignore directives.
	Name() string
	// Doc is a one-line description for -rules output.
	Doc() string
	// Check inspects one file of a package that type-checked and
	// reports findings.
	Check(prog *Program, pkg *Pkg, f *File, report ReportFunc)
}

// Options configures a Run.
type Options struct {
	// Rules to apply; nil means DefaultRules().
	Rules []Rule
	// Strict additionally reports //lint:ignore directives that
	// suppressed nothing. It judges them only when every package
	// type-checks: no rule runs on a broken package, and deadcode,
	// which needs the whole program, runs on none.
	Strict bool
}

// ignoreRule is the pseudo-rule name under which directive problems
// (malformed, unknown rule, stale) are reported. It is not
// suppressible.
const ignoreRule = "lint"

// ignore is one parsed //lint:ignore directive.
type ignore struct {
	rule, reason string
	target       int // line whose findings it suppresses
	pos          token.Pos
	used         bool
}

// Run lints the Go tree rooted at root and returns the surviving
// diagnostics sorted by position. Directories named testdata, vendor
// or starting with "." are skipped, as are _test.go files (tests
// legitimately use wall clocks, ad-hoc errors and bare goroutines).
// Errors — unreadable root, unparsable source, a `go list` that cannot
// run — match flowerr.ErrBadInput.
func Run(root string, opts Options) ([]Diagnostic, error) {
	rules := opts.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	known := make(map[string]bool, len(rules))
	for _, r := range rules {
		known[r.Name()] = true
	}

	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		return nil, flowerr.BadInputf("lint: walk %s: %v", root, err)
	}
	sort.Strings(paths)

	var diags []Diagnostic
	var stale []ignore
	staleFile := make(map[token.Pos]string)
	fset := token.NewFileSet()
	var files []*File
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, flowerr.BadInputf("lint: %v", err)
		}
		astf, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, flowerr.BadInputf("lint: %v", err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		rel = filepath.ToSlash(rel)
		dir := ""
		if i := strings.LastIndex(rel, "/"); i >= 0 {
			dir = rel[:i]
		}
		files = append(files, &File{Fset: fset, AST: astf, Src: src, Rel: rel, Dir: dir})
	}

	// The whole tree loads before any rule runs, so summaries and
	// project types are available to every file. A package that fails
	// to type-check surfaces as one diagnostic and its files are not
	// linted.
	prog, err := loadProgram(root, fset, files)
	if err != nil {
		return nil, err
	}
	complete := true
	for _, p := range prog.Pkgs {
		if p.Complete {
			continue
		}
		complete = false
		line, col, rel, msg := 1, 1, p.Files[0].Rel, fmt.Sprint(p.LoadErr)
		// A types.Error's own string repeats its position with the path
		// the parser got; the diagnostic carries the position already.
		if te, ok := p.LoadErr.(types.Error); ok {
			msg = te.Msg
			if te.Pos.IsValid() {
				pos := fset.Position(te.Pos)
				if r, err := filepath.Rel(root, pos.Filename); err == nil {
					rel = filepath.ToSlash(r)
				}
				line, col = pos.Line, pos.Column
			}
		}
		diags = append(diags, Diagnostic{
			File: rel, Line: line, Col: col, Rule: ignoreRule,
			Msg: fmt.Sprintf("package %s does not type-check (its files are not linted): %s", p.Path, msg),
		})
	}

	for _, f := range files {
		ignores, dirDiags := parseIgnores(f, known)
		diags = append(diags, dirDiags...)
		pkg := prog.ByDir[f.Dir]
		if !pkg.Complete {
			continue
		}
		var raw []Diagnostic
		for _, r := range rules {
			rule := r.Name()
			report := func(pos token.Pos, format string, args ...any) {
				p := fset.Position(pos)
				raw = append(raw, Diagnostic{
					File: f.Rel, Line: p.Line, Col: p.Column,
					Rule: rule, Msg: fmt.Sprintf(format, args...),
				})
			}
			r.Check(prog, pkg, f, report)
		}
		for _, d := range raw {
			if suppressed(ignores, d) {
				continue
			}
			diags = append(diags, d)
		}
		for i := range ignores {
			if !ignores[i].used {
				stale = append(stale, ignores[i])
				staleFile[ignores[i].pos] = f.Rel
			}
		}
	}
	if opts.Strict && complete {
		for _, ig := range stale {
			p := fset.Position(ig.pos)
			diags = append(diags, Diagnostic{
				File: staleFile[ig.pos], Line: p.Line, Col: p.Column, Rule: ignoreRule,
				Msg: fmt.Sprintf("stale //lint:ignore %s: no %s finding on line %d", ig.rule, ig.rule, ig.target),
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return diags, nil
}

// suppressed reports whether an ignore directive covers d, marking
// the directive used.
func suppressed(ignores []ignore, d Diagnostic) bool {
	hit := false
	for i := range ignores {
		if ignores[i].rule == d.Rule && ignores[i].target == d.Line {
			ignores[i].used = true
			hit = true
		}
	}
	return hit
}

// parseIgnores extracts //lint:ignore directives from a file. A
// trailing directive targets its own line; a directive alone on its
// line targets the next line. Malformed directives become
// diagnostics instead of suppressions.
func parseIgnores(f *File, known map[string]bool) ([]ignore, []Diagnostic) {
	var out []ignore
	var diags []Diagnostic
	tf := f.Fset.File(f.AST.Pos())
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			const prefix = "//lint:ignore"
			if !strings.HasPrefix(c.Text, prefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, prefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // //lint:ignorexyz is not the directive
			}
			p := f.Fset.Position(c.Pos())
			bad := func(format string, args ...any) {
				diags = append(diags, Diagnostic{
					File: f.Rel, Line: p.Line, Col: p.Column, Rule: ignoreRule,
					Msg: fmt.Sprintf(format, args...),
				})
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				bad("malformed directive: want //lint:ignore <rule> <reason>")
				continue
			}
			rule := fields[0]
			if !known[rule] {
				bad("unknown rule %q in //lint:ignore", rule)
				continue
			}
			if len(fields) < 2 {
				bad("//lint:ignore %s needs a reason", rule)
				continue
			}
			target := p.Line
			if standalone(f, tf, c) {
				target = p.Line + 1
			}
			out = append(out, ignore{
				rule:   rule,
				reason: strings.Join(fields[1:], " "),
				target: target,
				pos:    c.Pos(),
			})
		}
	}
	return out, diags
}

// standalone reports whether only whitespace precedes the comment on
// its line.
func standalone(f *File, tf *token.File, c *ast.Comment) bool {
	off := tf.Offset(c.Pos())
	lineStart := tf.Offset(tf.LineStart(tf.Line(c.Pos())))
	return strings.TrimSpace(string(f.Src[lineStart:off])) == ""
}
