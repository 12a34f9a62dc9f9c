// Package noalloc checks functions annotated //mb:noalloc for
// allocation-inducing constructs. These are the serving hot paths —
// stream ingest, WAL append framing, binary-protocol frame processing,
// the engine's batch inner loop — whose zero-allocation property the
// benchmarks pin; the analyzer catches the regression at vet time,
// before a benchmark diff does.
//
// The check is syntactic plus type-informed, per function body:
//
//   - make/new and map/slice composite literals (and &T{} literals);
//   - append whose result is not assigned back to its own first
//     operand (unbounded growth into a fresh backing array);
//   - string concatenation and string<->[]byte/[]rune conversions —
//     except m[string(b)] read from a map, which the compiler looks up
//     without building the string (a store through the same expression
//     does build it, and is reported);
//   - closures (func literals) and go statements;
//   - interface boxing: passing, assigning or returning a value of
//     non-pointer-shaped concrete type where an interface is expected;
//   - calls into the formatting family (fmt.*, errors.New, sort.Slice,
//     strings.Join/Repeat, strconv.Itoa/Format*/Quote*).
//
// Plain calls to other functions are not followed: annotate the callee
// too if it is on the hot path. A finding on a deliberate cold path
// (error return, capacity-miss warmup) is suppressed with a line
// comment "//mb:allocok <why>". Every annotation is backed by a
// testing.AllocsPerRun regression test (noalloc_test.go in the
// annotated package); the analysis suite's tests enforce that pairing.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the noalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "reject allocation-inducing constructs in functions annotated //mb:noalloc",
	Run:  run,
}

// denylist maps package path -> function names that allocate by
// construction. An empty set means every function in the package.
var denylist = map[string]map[string]bool{
	"fmt":     {},
	"errors":  {"New": true},
	"sort":    {"Slice": true, "SliceStable": true, "Sort": true, "Stable": true},
	"strings": {"Join": true, "Repeat": true, "Replace": true, "ReplaceAll": true, "Split": true, "Fields": true, "ToUpper": true, "ToLower": true},
	"strconv": {"Itoa": true, "FormatInt": true, "FormatUint": true, "FormatFloat": true, "Quote": true, "Unquote": true, "AppendQuote": false},
}

func run(pass *analysis.Pass) error {
	fns := analysis.FuncMarkers(pass.Files, analysis.MarkNoalloc)
	if len(fns) == 0 {
		return nil
	}
	allocOK := analysis.MarkedLines(pass.Fset, pass.Files, analysis.MarkAllocOK)
	for _, fd := range fns {
		if fd.Body == nil {
			continue
		}
		c := &checker{pass: pass, fd: fd, allocOK: allocOK, stored: map[ast.Expr]bool{}, free: map[*ast.CallExpr]bool{}}
		c.check()
	}
	return nil
}

type checker struct {
	pass    *analysis.Pass
	fd      *ast.FuncDecl
	allocOK map[string]map[int]bool
	// stored: index expressions written through; free: conversions that
	// are the key of a map read.
	stored map[ast.Expr]bool
	free   map[*ast.CallExpr]bool
}

// report emits a finding unless its line carries //mb:allocok.
func (c *checker) report(pos token.Pos, format string, args ...any) {
	p := c.pass.Fset.Position(pos)
	if c.allocOK[p.Filename][p.Line] {
		return
	}
	args = append(args, c.fd.Name.Name)
	c.pass.Reportf(pos, format+" in //mb:noalloc function %s", args...)
}

func (c *checker) check() {
	info := c.pass.TypesInfo
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			c.report(x.Pos(), "closure allocates")
			return false // the closure's own body is its own scope
		case *ast.GoStmt:
			c.report(x.Pos(), "go statement allocates a goroutine")
		case *ast.CompositeLit:
			c.compositeLit(x)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					c.report(x.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(info.Types[x.X].Type) {
				c.report(x.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				c.stored[lhs] = true
			}
			c.assign(x)
		case *ast.IncDecStmt:
			c.stored[x.X] = true
		case *ast.IndexExpr:
			// Parents come before children: by now a store has been seen.
			if call, ok := x.Index.(*ast.CallExpr); ok && !c.stored[x] {
				if _, isMap := types.Unalias(info.TypeOf(x.X)).Underlying().(*types.Map); isMap {
					c.free[call] = true
				}
			}
		case *ast.ReturnStmt:
			c.returnStmt(x)
		case *ast.CallExpr:
			c.call(x)
		}
		return true
	})
}

func (c *checker) compositeLit(x *ast.CompositeLit) {
	t := c.pass.TypesInfo.Types[x].Type
	if t == nil {
		return
	}
	switch types.Unalias(t).Underlying().(type) {
	case *types.Slice:
		c.report(x.Pos(), "slice literal allocates")
	case *types.Map:
		c.report(x.Pos(), "map literal allocates")
	}
}

// assign checks self-append shape and boxing on plain assignments.
func (c *checker) assign(x *ast.AssignStmt) {
	info := c.pass.TypesInfo
	if len(x.Lhs) == len(x.Rhs) {
		for i, rhs := range x.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(info, call, "append") {
				if !selfAppend(x.Lhs[i], call) {
					c.report(call.Pos(), "append grows into a fresh backing array (result not reassigned to its operand)")
				}
				continue
			}
			c.boxing(x.Lhs[i], rhs)
		}
		return
	}
	for _, rhs := range x.Rhs {
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(info, call, "append") {
			c.report(call.Pos(), "append result dropped into a multi-assign; cannot prove in-place growth")
		}
	}
}

// boxing reports an implicit interface conversion of a non-pointer-
// shaped value in an assignment position.
func (c *checker) boxing(dst, src ast.Expr) {
	info := c.pass.TypesInfo
	dt := info.Types[dst].Type
	st := info.Types[src].Type
	if dt == nil || st == nil {
		return
	}
	if !types.IsInterface(dt) || types.IsInterface(st) {
		return
	}
	if tv := info.Types[src]; tv.IsNil() || tv.Value != nil {
		return // nil and constants do not box at run time
	}
	if analysis.IsPointerShaped(st) {
		return
	}
	c.report(src.Pos(), "assigning %s to interface boxes it on the heap", st.String())
}

func (c *checker) returnStmt(x *ast.ReturnStmt) {
	sig, ok := c.pass.TypesInfo.Defs[c.fd.Name].Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(x.Results) {
		return
	}
	for i, res := range x.Results {
		c.boxingTo(sig.Results().At(i).Type(), res)
	}
}

func (c *checker) boxingTo(dt types.Type, src ast.Expr) {
	info := c.pass.TypesInfo
	st := info.Types[src].Type
	if dt == nil || st == nil {
		return
	}
	if !types.IsInterface(dt) || types.IsInterface(st) {
		return
	}
	if tv := info.Types[src]; tv.IsNil() || tv.Value != nil {
		return
	}
	if analysis.IsPointerShaped(st) {
		return
	}
	c.report(src.Pos(), "converting %s to interface boxes it on the heap", st.String())
}

func (c *checker) call(x *ast.CallExpr) {
	info := c.pass.TypesInfo
	// Conversions: T(v).
	if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
		c.conversion(x, tv.Type)
		return
	}
	if isBuiltin(info, x, "make") {
		c.report(x.Pos(), "make allocates")
		return
	}
	if isBuiltin(info, x, "new") {
		c.report(x.Pos(), "new allocates")
		return
	}
	if isBuiltin(info, x, "append") {
		// Handled at the assignment; a bare append (unused result) is
		// pointless and an expression-position append cannot be proven
		// in-place.
		return
	}
	// Denylisted allocating helpers.
	if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				if names, hit := denylist[pn.Imported().Path()]; hit {
					if len(names) == 0 || names[sel.Sel.Name] {
						c.report(x.Pos(), "call to %s.%s allocates", pn.Imported().Path(), sel.Sel.Name)
					}
				}
			}
		}
	}
	// Boxing at argument positions.
	sig, ok := info.Types[x.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range x.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if x.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			c.boxingTo(pt, arg)
		}
	}
	if sig.Variadic() && !x.Ellipsis.IsValid() && len(x.Args) >= params.Len() {
		c.report(x.Pos(), "variadic call allocates its argument slice")
	}
}

func (c *checker) conversion(x *ast.CallExpr, to types.Type) {
	if len(x.Args) != 1 {
		return
	}
	from := c.pass.TypesInfo.Types[x.Args[0]].Type
	if from == nil {
		return
	}
	toU := types.Unalias(to).Underlying()
	fromU := types.Unalias(from).Underlying()
	if isString(fromU) {
		if s, ok := toU.(*types.Slice); ok && isByteOrRune(s.Elem()) {
			c.report(x.Pos(), "string to %s conversion copies", to.String())
		}
	}
	if s, ok := fromU.(*types.Slice); ok && isByteOrRune(s.Elem()) && isString(toU) && !c.free[x] {
		c.report(x.Pos(), "%s to string conversion copies", from.String())
	}
	if types.IsInterface(toU) && !types.IsInterface(fromU) && !analysis.IsPointerShaped(from) {
		if tv := c.pass.TypesInfo.Types[x.Args[0]]; !tv.IsNil() && tv.Value == nil {
			c.report(x.Pos(), "conversion of %s to interface boxes it on the heap", from.String())
		}
	}
}

func selfAppend(lhs ast.Expr, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	target := analysis.ExprText(lhs)
	first := call.Args[0]
	// x = append(x, ...) and x = append(x[:0], ...) both reuse x's
	// backing array (the latter is the reset-and-refill idiom).
	if sl, ok := first.(*ast.SliceExpr); ok {
		return analysis.ExprText(sl.X) == target
	}
	return analysis.ExprText(first) == target
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRune(t types.Type) bool {
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32
}
