// Package hotalloc implements the "hotalloc" analyzer: functions marked
// //schedlint:hotpath must not contain constructs the Go compiler lowers
// to heap allocations. These functions — cachesim.Access and its helpers,
// the engine's chunk/step/drain loops, the strand op capture and the
// WS/PWS steal path — carry the AllocsPerRun=0 guarantees established by the
// hot-path overhaul (DESIGN §5), which the runtime allocation tests pin
// only for the kernels they run; the analyzer rejects regressions on any
// code path at compile time.
//
// Flagged inside a hot path:
//   - &T{...}: address of a composite literal (escapes to the heap);
//   - slice or map composite literals, make, and new;
//   - append (growth reallocates; pooled free-list appends live in
//     functions that are deliberately not hotpath-marked);
//   - function literals (closure environments allocate);
//   - implicit or explicit conversion of a concrete value to an interface
//     type (boxing), in call arguments, assignments and returns.
//
// Arguments of panic calls are exempt — a panicking hot path is already
// aborting the run — as are constant operands, which the compiler
// materializes in static data rather than on the heap.
//
// The analysis is per function: calls out of a hot path into an unmarked
// function are not followed. The contract is therefore also a marker
// discipline — every function on the fast path should carry the directive.
package hotalloc

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the hotalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "forbid heap allocations (composite-literal escapes, make/new/append, closures, " +
		"interface boxing) inside //schedlint:hotpath functions",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !analysis.IsHotpath(fn) {
				continue
			}
			c := &checker{pass: pass, fname: fn.Name.Name, results: resultTypes(pass, fn)}
			ast.Inspect(fn.Body, c.visit)
		}
	}
	return nil
}

// resultTypes returns the declared result types of fn, for return-statement
// boxing checks.
func resultTypes(pass *analysis.Pass, fn *ast.FuncDecl) []types.Type {
	obj := pass.ObjectOf(fn.Name)
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := make([]types.Type, sig.Results().Len())
	for i := range out {
		out[i] = sig.Results().At(i).Type()
	}
	return out
}

type checker struct {
	pass    *analysis.Pass
	fname   string
	results []types.Type
}

func (c *checker) reportf(pos ast.Node, format string, args ...any) {
	c.pass.Reportf(pos.Pos(), "hot path %s: "+format, append([]any{c.fname}, args...)...)
}

// visit is the ast.Inspect callback; returning false prunes the subtree.
func (c *checker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		c.reportf(n, "function literal allocates its closure environment on the heap")
		return false // the literal's body is not part of the hot path

	case *ast.UnaryExpr:
		if lit, ok := n.X.(*ast.CompositeLit); ok && n.Op.String() == "&" {
			c.reportf(n, "address of composite literal %s escapes to the heap", types.ExprString(lit.Type))
		}

	case *ast.CompositeLit:
		t := c.pass.TypeOf(n)
		if t == nil {
			break
		}
		switch t.Underlying().(type) {
		case *types.Slice:
			c.reportf(n, "slice literal allocates a backing array")
		case *types.Map:
			c.reportf(n, "map literal allocates")
		}

	case *ast.CallExpr:
		return c.checkCall(n)

	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				c.checkBoxing(c.pass.TypeOf(lhs), n.Rhs[i], "assignment")
			}
		}

	case *ast.ValueSpec:
		if n.Type != nil {
			t := c.pass.TypeOf(n.Type)
			for _, v := range n.Values {
				c.checkBoxing(t, v, "variable declaration")
			}
		}

	case *ast.ReturnStmt:
		if len(n.Results) == len(c.results) {
			for i, r := range n.Results {
				c.checkBoxing(c.results[i], r, "return")
			}
		}
	}
	return true
}

// checkCall handles builtin allocators, conversions and argument boxing.
// It returns false to prune the subtree for exempt panic arguments.
func (c *checker) checkCall(call *ast.CallExpr) bool {
	// Builtins: make / new / append allocate; panic exempts its arguments.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.reportf(call, "make allocates")
			case "new":
				c.reportf(call, "new allocates")
			case "append":
				c.reportf(call, "append may grow and reallocate its backing array; "+
					"preallocate at setup or keep pooled growth out of hotpath-marked functions")
			case "panic":
				return false
			}
			return true
		}
	}
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if ok && tv.IsType() {
		// Explicit conversion T(x).
		if len(call.Args) == 1 {
			c.checkBoxing(tv.Type, call.Args[0], "conversion")
		}
		return true
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return true
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type() // s... passes the slice through
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		c.checkBoxing(pt, arg, "argument")
	}
	return true
}

// checkBoxing reports when a concrete, non-constant value is converted to
// an interface type.
func (c *checker) checkBoxing(dst types.Type, src ast.Expr, context string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[src]
	if !ok || tv.Type == nil || tv.IsNil() || tv.Value != nil {
		return // unknown, nil, or a constant the compiler keeps in static data
	}
	if types.IsInterface(tv.Type) {
		return
	}
	c.reportf(src, "%s converts %s to interface %s (boxing allocates)",
		context, tv.Type.String(), dst.String())
}
