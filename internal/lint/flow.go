package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the dataflow half of the loaded program: a per-function
// may-alias analysis plus lightweight interprocedural summaries.
//
// The analysis tracks, for every local variable of a function, two
// bitmasks of "seed" memory regions. Seeds are the function's
// parameters when building summaries, and published artifacts (store
// results, compute deps) or captured scratch buffers when the
// artifact rules run. The two domains are:
//
//   - alias bits: the value may share mutable backing memory with the
//     seed (x := t, x := t.Field, x := t[i], x := t.(T), &t.f,
//     append(t, ...) all keep them). A write through such a value
//     lands in the seed's memory.
//   - contain bits: the value is a fresh container that holds a
//     reference to the seed (p := &Placement{NL: nl},
//     list = append(list, buf)). Writing the container's own fields
//     does NOT touch the seed, but returning the container publishes
//     it.
//
// Writes and interprocedural mutation summaries consult alias bits
// only; escape analysis (returns) unions both. Materializing a copy of
// a reference-free value (ints, strings, pure-value structs) drops
// both masks. The design errs toward precision over recall: a
// reported write provably lands in seed-aliased memory modulo the
// documented blind spots (references re-extracted from containers,
// calls through function values).
//
// A write "counts" only when its access path crosses a reference
// edge — a pointer deref, a slice/map index, a field selected
// through a pointer — because only then does the store land in the
// shared memory rather than in the local copy that holds the mask.

// mask carries the two taint domains of one value.
type mask struct {
	a uint64 // may-alias: shares backing memory with these seeds
	c uint64 // contains: fresh container holding references to these seeds
}

func (m mask) or(o mask) mask  { return mask{m.a | o.a, m.c | o.c} }
func (m mask) any() uint64     { return m.a | m.c }
func (m mask) empty() bool     { return m.a|m.c == 0 }
func (m mask) contained() mask { return mask{0, m.a | m.c} }

// FuncSum is the interprocedural summary of one declared function:
// which results may alias or contain which parameters, and which
// parameters the function (transitively) writes through. The receiver,
// when present, is parameter 0. Parameters beyond maxSumParams are
// untracked.
type FuncSum struct {
	RetA    []uint64 // RetA[i] = parameters result i may alias
	RetC    []uint64 // RetC[i] = parameters result i may contain
	Mutates uint64   // parameters written through
}

// maxSumParams bounds the per-function parameter bits so rule-level
// seeds can live in the high bits of the same mask.
const maxSumParams = 30

// flowCtx runs the alias analysis over one function body.
type flowCtx struct {
	prog *Program
	info *types.Info

	// seeds maps variables to their initial alias bits (parameters,
	// deps values, captured buffers).
	seeds map[*types.Var]uint64
	// sourceMask, when set, injects extra alias bits for calls that
	// produce seeded values (artifact sources). Applied to result 0.
	sourceMask func(call *ast.CallExpr) uint64
	// onWrite, when set, observes every seed-aliased write on the
	// reporting pass. op names the operation (assign, append, copy,
	// delete, clear, or the callee of an interprocedural write);
	// target renders the written expression. The mask argument holds
	// alias bits only.
	onWrite func(pos token.Pos, aliased uint64, op, target string)

	vals    map[*types.Var]mask
	mutated uint64
	rets    []mask
	changed bool
}

// run iterates the body to a fixpoint silently, then, if onWrite is
// set, makes one reporting pass. Loop back-edges converge because
// masks only grow.
func (fc *flowCtx) run(body *ast.BlockStmt) {
	if fc.vals == nil {
		fc.vals = make(map[*types.Var]mask)
	}
	report := fc.onWrite
	fc.onWrite = nil
	for i := 0; i < 8; i++ {
		fc.changed = false
		fc.walkStmt(body, 0)
		if !fc.changed {
			break
		}
	}
	if report != nil {
		fc.onWrite = report
		fc.walkStmt(body, 0)
	}
}

func (fc *flowCtx) bind(id *ast.Ident, m mask) {
	if id.Name == "_" || m.empty() {
		return
	}
	obj, _ := fc.info.ObjectOf(id).(*types.Var)
	if obj == nil {
		return
	}
	// Materialization gate: binding copies the value; if the bound
	// variable's type holds no mutable references, writes to it can
	// never reach the seed.
	if !containsRef(obj.Type()) {
		return
	}
	fc.bindVar(obj, m)
}

func (fc *flowCtx) bindVar(obj *types.Var, m mask) {
	old := fc.vals[obj]
	merged := old.or(m)
	if merged != old {
		fc.vals[obj] = merged
		fc.changed = true
	}
}

func (fc *flowCtx) varMask(obj *types.Var) mask {
	m := fc.vals[obj]
	m.a |= fc.seeds[obj]
	return m
}

// walkStmt interprets one statement. depth counts FuncLit nesting so
// only the outermost function's returns feed rets; everything else
// (binds, writes) is depth-independent because closures share their
// enclosing function's variables.
func (fc *flowCtx) walkStmt(s ast.Stmt, depth int) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			fc.walkStmt(st, depth)
		}
	case *ast.AssignStmt:
		fc.walkAssign(s)
	case *ast.IncDecStmt:
		fc.write(s.X, "assign")
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					masks := fc.tupleMasks(vs.Values[0], len(vs.Names))
					for i, name := range vs.Names {
						fc.bind(name, masks[i])
					}
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						fc.bind(name, fc.exprMask(vs.Values[i]))
					}
				}
			}
		}
	case *ast.ExprStmt:
		fc.exprMask(s.X)
	case *ast.SendStmt:
		fc.exprMask(s.Chan)
		fc.exprMask(s.Value)
	case *ast.GoStmt:
		fc.exprMask(s.Call)
	case *ast.DeferStmt:
		fc.exprMask(s.Call)
	case *ast.ReturnStmt:
		for i, res := range s.Results {
			m := fc.exprMask(res)
			if depth > 0 {
				continue
			}
			for len(fc.rets) <= i {
				fc.rets = append(fc.rets, mask{})
			}
			merged := fc.rets[i].or(m)
			if merged != fc.rets[i] {
				fc.rets[i] = merged
				fc.changed = true
			}
		}
	case *ast.IfStmt:
		fc.walkStmt(s.Init, depth)
		fc.exprMask(s.Cond)
		fc.walkStmt(s.Body, depth)
		fc.walkStmt(s.Else, depth)
	case *ast.ForStmt:
		fc.walkStmt(s.Init, depth)
		if s.Cond != nil {
			fc.exprMask(s.Cond)
		}
		fc.walkStmt(s.Post, depth)
		fc.walkStmt(s.Body, depth)
	case *ast.RangeStmt:
		m := fc.exprMask(s.X)
		if s.Key != nil {
			if id, ok := s.Key.(*ast.Ident); ok && s.Tok == token.DEFINE {
				fc.bind(id, mask{})
			}
		}
		if s.Value != nil {
			if id, ok := s.Value.(*ast.Ident); ok && s.Tok == token.DEFINE {
				// The range value is a copy of the element; the bind
				// gate drops the mask unless the element type carries
				// references into the container's memory.
				fc.bind(id, m)
			}
		}
		fc.walkStmt(s.Body, depth)
	case *ast.SwitchStmt:
		fc.walkStmt(s.Init, depth)
		if s.Tag != nil {
			fc.exprMask(s.Tag)
		}
		fc.walkStmt(s.Body, depth)
	case *ast.TypeSwitchStmt:
		fc.walkStmt(s.Init, depth)
		var m mask
		switch a := s.Assign.(type) {
		case *ast.AssignStmt:
			if len(a.Rhs) == 1 {
				if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
					m = fc.exprMask(ta.X)
				}
			}
		case *ast.ExprStmt:
			if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
				fc.exprMask(ta.X)
			}
		}
		for _, cl := range s.Body.List {
			cc, ok := cl.(*ast.CaseClause)
			if !ok {
				continue
			}
			// The per-clause implicit variable aliases the switched
			// value under the clause's type.
			if obj, ok := fc.info.Implicits[cc].(*types.Var); ok && !m.empty() && containsRef(obj.Type()) {
				fc.bindVar(obj, m)
			}
			for _, st := range cc.Body {
				fc.walkStmt(st, depth)
			}
		}
	case *ast.SelectStmt:
		fc.walkStmt(s.Body, depth)
	case *ast.CommClause:
		fc.walkStmt(s.Comm, depth)
		for _, st := range s.Body {
			fc.walkStmt(st, depth)
		}
	case *ast.CaseClause:
		for _, e := range s.List {
			fc.exprMask(e)
		}
		for _, st := range s.Body {
			fc.walkStmt(st, depth)
		}
	case *ast.LabeledStmt:
		fc.walkStmt(s.Stmt, depth)
	}
}

func (fc *flowCtx) walkAssign(s *ast.AssignStmt) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		masks := fc.tupleMasks(s.Rhs[0], len(s.Lhs))
		for i, lhs := range s.Lhs {
			fc.assignOne(lhs, masks[i], s.Tok)
		}
		return
	}
	for i, lhs := range s.Lhs {
		var m mask
		if i < len(s.Rhs) {
			m = fc.exprMask(s.Rhs[i])
		}
		fc.assignOne(lhs, m, s.Tok)
	}
}

func (fc *flowCtx) assignOne(lhs ast.Expr, m mask, tok token.Token) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		// Rebinding a variable never writes through memory; compound
		// ops (+=) on a bare variable only touch reference-free values.
		if tok == token.ASSIGN || tok == token.DEFINE {
			fc.bind(id, m)
		}
		return
	}
	fc.write(lhs, "assign")
}

// write records a store through lhs when its access path crosses a
// reference edge back to seed-aliased memory.
func (fc *flowCtx) write(lhs ast.Expr, op string) {
	m, crosses := fc.lvalueInfo(lhs)
	if m.a == 0 || !crosses {
		return
	}
	fc.mutated |= m.a
	if fc.onWrite != nil {
		fc.onWrite(lhs.Pos(), m.a, op, types.ExprString(lhs))
	}
}

// lvalueInfo resolves a write target to the mask of its root and
// whether the path from root to store crosses a reference edge (so
// the store lands in shared memory, not in a local copy).
func (fc *flowCtx) lvalueInfo(lhs ast.Expr) (m mask, crosses bool) {
	e := lhs
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			crosses = true
			e = v.X
		case *ast.IndexExpr:
			switch fc.typeOf(v.X).Underlying().(type) {
			case *types.Slice, *types.Map, *types.Pointer:
				crosses = true
			}
			e = v.X
		case *ast.SelectorExpr:
			if _, ok := fc.typeOf(v.X).Underlying().(*types.Pointer); ok {
				crosses = true
			}
			e = v.X
		case *ast.Ident:
			if obj, ok := fc.info.ObjectOf(v).(*types.Var); ok && obj != nil {
				return fc.varMask(obj), crosses
			}
			return mask{}, crosses
		default:
			// Root is a computed expression (call result, composite):
			// its own mask stands in for the root variable.
			return fc.exprMask(e), true
		}
	}
}

func (fc *flowCtx) typeOf(e ast.Expr) types.Type {
	if t := fc.info.TypeOf(e); t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

// exprMask evaluates an expression's mask and applies the side
// effects of any calls inside it.
func (fc *flowCtx) exprMask(e ast.Expr) mask {
	switch e := e.(type) {
	case nil:
		return mask{}
	case *ast.Ident:
		if obj, ok := fc.info.ObjectOf(e).(*types.Var); ok && obj != nil {
			return fc.varMask(obj)
		}
		return mask{}
	case *ast.ParenExpr:
		return fc.exprMask(e.X)
	case *ast.SelectorExpr:
		if _, ok := fc.info.Uses[e.Sel].(*types.Func); ok {
			// Method value: evaluate the receiver for effects only.
			fc.exprMask(e.X)
			return mask{}
		}
		if m := fc.exprMask(e.X); !m.empty() && containsRef(fc.typeOf(e)) {
			return m
		}
		return mask{}
	case *ast.IndexExpr:
		m := fc.exprMask(e.X)
		fc.exprMask(e.Index)
		if !m.empty() && containsRef(fc.typeOf(e)) {
			return m
		}
		return mask{}
	case *ast.SliceExpr:
		m := fc.exprMask(e.X)
		fc.exprMask(e.Low)
		fc.exprMask(e.High)
		fc.exprMask(e.Max)
		return m
	case *ast.StarExpr:
		if m := fc.exprMask(e.X); !m.empty() && containsRef(fc.typeOf(e)) {
			return m
		}
		return mask{}
	case *ast.TypeAssertExpr:
		if e.Type == nil {
			return fc.exprMask(e.X)
		}
		if m := fc.exprMask(e.X); !m.empty() && containsRef(fc.typeOf(e)) {
			return m
		}
		return mask{}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// Address-of reaches the operand's memory without a copy,
			// so no materialization gate applies.
			m, _ := fc.lvalueInfo(e.X)
			return m
		}
		fc.exprMask(e.X)
		return mask{}
	case *ast.BinaryExpr:
		fc.exprMask(e.X)
		fc.exprMask(e.Y)
		return mask{}
	case *ast.CompositeLit:
		// A composite literal is fresh memory: seeds stored in it are
		// contained, not aliased. Writing the literal's own fields
		// cannot reach the seed, but returning it publishes the seed.
		var m mask
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if em := fc.exprMask(el); !em.empty() && containsRef(fc.typeOf(el)) {
				m = m.or(em.contained())
			}
		}
		return m
	case *ast.CallExpr:
		masks := fc.callMasks(e, 1)
		return masks[0]
	case *ast.FuncLit:
		fc.walkStmt(e.Body, 1)
		return mask{}
	default:
		return mask{}
	}
}

// tupleMasks evaluates a multi-value rhs (call, map index, type
// assert, channel receive) into n per-result masks.
func (fc *flowCtx) tupleMasks(rhs ast.Expr, n int) []mask {
	masks := make([]mask, n)
	switch e := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		copy(masks, fc.callMasks(e, n))
	case *ast.IndexExpr: // v, ok := m[k]
		masks[0] = fc.exprMask(e)
	case *ast.TypeAssertExpr: // v, ok := x.(T)
		masks[0] = fc.exprMask(e)
	case *ast.UnaryExpr: // v, ok := <-ch
		fc.exprMask(e)
	default:
		masks[0] = fc.exprMask(rhs)
	}
	return masks
}

// knownMutators are standard-library functions whose summaries the
// loader cannot compute: the map gives, per package path and name,
// the index of the argument they write through.
var knownMutators = map[string]map[string]int{
	"sort": {
		"Slice": 0, "SliceStable": 0, "Sort": 0, "Stable": 0,
		"Ints": 0, "Float64s": 0, "Strings": 0,
	},
	"slices": {
		"Sort": 0, "SortFunc": 0, "SortStableFunc": 0, "Reverse": 0,
	},
	"math/rand":    {"Shuffle": -1},
	"math/rand/v2": {"Shuffle": -1},
}

// callMasks applies a call's effects (interprocedural writes via the
// callee summary, built-in mutations) and returns up to n result
// masks.
func (fc *flowCtx) callMasks(call *ast.CallExpr, n int) []mask {
	masks := make([]mask, n)
	if n < 1 {
		masks = make([]mask, 1)
	}

	// Built-ins and conversions first: they have no *types.Func.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := fc.info.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				if len(call.Args) > 0 {
					m := fc.exprMask(call.Args[0])
					for i, a := range call.Args[1:] {
						// Appended elements end up reachable from the
						// result's backing array — but only the copied
						// value matters: spreading a []float64 with ...
						// copies bare floats, which carry nothing.
						em := fc.exprMask(a)
						copied := fc.typeOf(a)
						if call.Ellipsis.IsValid() && i == len(call.Args)-2 {
							if sl, ok := copied.Underlying().(*types.Slice); ok {
								copied = sl.Elem()
							}
						}
						if !em.empty() && containsRef(copied) {
							m = m.or(em.contained())
						}
					}
					if m.a != 0 {
						// Appending may write the shared backing array
						// past len.
						fc.mutated |= m.a
						if fc.onWrite != nil {
							fc.onWrite(call.Pos(), m.a, "append", types.ExprString(call.Args[0]))
						}
					}
					masks[0] = m
				}
				return masks
			case "copy", "delete", "clear":
				if len(call.Args) > 0 {
					m := fc.exprMask(call.Args[0])
					for _, a := range call.Args[1:] {
						fc.exprMask(a)
					}
					if m.a != 0 {
						fc.mutated |= m.a
						if fc.onWrite != nil {
							fc.onWrite(call.Pos(), m.a, id.Name, types.ExprString(call.Args[0]))
						}
					}
				}
				return masks
			default:
				for _, a := range call.Args {
					fc.exprMask(a)
				}
				return masks
			}
		}
	}
	if tv, ok := fc.info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: the result is the operand under a new type.
		if len(call.Args) == 1 {
			masks[0] = fc.exprMask(call.Args[0])
		}
		return masks
	}

	// Evaluate arguments; the receiver of a method call is argument 0
	// of the summary's parameter space.
	var argMasks []mask
	var argExprs []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := fc.info.Uses[sel.Sel].(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				argMasks = append(argMasks, fc.exprMask(sel.X))
				argExprs = append(argExprs, sel.X)
			}
		}
	}
	for _, a := range call.Args {
		argMasks = append(argMasks, fc.exprMask(a))
		argExprs = append(argExprs, a)
	}

	fn := calleeOf(fc.info, call)
	if fn == nil {
		if fc.sourceMask != nil {
			masks[0].a = fc.sourceMask(call)
		}
		return masks
	}

	// Standard-library mutators with hand-written summaries.
	if fn.Pkg() != nil {
		if byName, ok := knownMutators[fn.Pkg().Path()]; ok {
			if idx, ok := byName[fn.Name()]; ok && idx >= 0 && idx < len(call.Args) {
				if m := fc.exprMask(call.Args[idx]); m.a != 0 {
					fc.mutated |= m.a
					if fc.onWrite != nil {
						fc.onWrite(call.Pos(), m.a, "call "+fn.FullName(), types.ExprString(call.Args[idx]))
					}
				}
			}
		}
	}

	if sum := fc.prog.Sums[fn]; sum != nil {
		for i, am := range argMasks {
			if i >= maxSumParams {
				break
			}
			// A summary-reported write through parameter i lands in
			// memory the argument directly aliases; memory merely
			// stored inside the argument would need the two-level
			// traversal this analysis deliberately omits.
			if am.a != 0 && sum.Mutates&(1<<uint(i)) != 0 {
				fc.mutated |= am.a
				if fc.onWrite != nil {
					fc.onWrite(call.Pos(), am.a, "call "+fn.FullName(), types.ExprString(argExprs[i]))
				}
			}
		}
		for r := 0; r < n; r++ {
			if r < len(sum.RetA) {
				for i, am := range argMasks {
					if i >= maxSumParams {
						break
					}
					if sum.RetA[r]&(1<<uint(i)) != 0 {
						// Result aliases the argument: both domains
						// carry over unchanged.
						masks[r] = masks[r].or(am)
					}
				}
			}
			if r < len(sum.RetC) {
				for i, am := range argMasks {
					if i >= maxSumParams {
						break
					}
					if sum.RetC[r]&(1<<uint(i)) != 0 && !am.empty() {
						// Result is a fresh container holding the
						// argument.
						masks[r] = masks[r].or(am.contained())
					}
				}
			}
		}
	}
	if fc.sourceMask != nil {
		masks[0].a |= fc.sourceMask(call)
	}
	return masks
}

// containsRef reports whether values of t carry references to mutable
// memory: writing through a copy of such a value can still reach the
// original's data. Strings are immutable and funcs/channels expose no
// addressable storage to the rules, so they do not count.
func containsRef(t types.Type) bool {
	return containsRefDepth(t, 0)
}

func containsRefDepth(t types.Type, depth int) bool {
	if depth > 10 {
		return true // deeply recursive type: assume shared memory
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Interface:
		return true
	case *types.Chan, *types.Signature:
		return false
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsRefDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return containsRefDepth(u.Elem(), depth+1)
	default:
		return false
	}
}

// summarizePkg computes FuncSum for every function declared in pkg.
// Dependencies are already summarized (the loader works in dependency
// order); recursion within the package converges by iterating until
// no summary changes.
func summarizePkg(prog *Program, pkg *Pkg) {
	type declFn struct {
		fn *types.Func
		fd *ast.FuncDecl
	}
	var fns []declFn
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fns = append(fns, declFn{fn, fd})
			prog.Sums[fn] = &FuncSum{}
		}
	}
	for round := 0; round < 5; round++ {
		changed := false
		for _, d := range fns {
			sum := summarizeFunc(prog, pkg.Info, d.fn, d.fd)
			old := prog.Sums[d.fn]
			if !sumEqual(old, sum) {
				prog.Sums[d.fn] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

func sumEqual(a, b *FuncSum) bool {
	if a.Mutates != b.Mutates || len(a.RetA) != len(b.RetA) || len(a.RetC) != len(b.RetC) {
		return false
	}
	for i := range a.RetA {
		if a.RetA[i] != b.RetA[i] {
			return false
		}
	}
	for i := range a.RetC {
		if a.RetC[i] != b.RetC[i] {
			return false
		}
	}
	return true
}

// paramVars lists a function's summary parameters: receiver first,
// then the declared parameters.
func paramVars(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

func summarizeFunc(prog *Program, info *types.Info, fn *types.Func, fd *ast.FuncDecl) *FuncSum {
	seeds := make(map[*types.Var]uint64)
	for i, p := range paramVars(fn) {
		if i >= maxSumParams {
			break
		}
		if containsRef(p.Type()) {
			seeds[p] = 1 << uint(i)
		}
	}
	fc := &flowCtx{prog: prog, info: info, seeds: seeds}
	fc.run(fd.Body)
	paramMask := uint64(1<<uint(min(len(paramVars(fn)), maxSumParams))) - 1
	sum := &FuncSum{Mutates: fc.mutated & paramMask}
	for _, r := range fc.rets {
		sum.RetA = append(sum.RetA, r.a&paramMask)
		sum.RetC = append(sum.RetC, r.c&paramMask)
	}
	return sum
}
