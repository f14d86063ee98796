// Package schedcontract implements the "schedcontract" analyzer: it
// enforces the contract between the simulator engine and Scheduler
// implementations (sched.Scheduler's Add/Get/Done/TaskEnd plus Setup).
//
// The engine is a single-threaded discrete-event simulator that invokes
// scheduler call-backs synchronously and — when pooling is enabled —
// recycles task and strand objects the moment their lifetime ends. Three
// rules follow, checked structurally on every type that implements the
// scheduler method shapes:
//
//  1. No goroutines: a call-back that spawns host concurrency breaks the
//     determinism of the single-goroutine engine (a call-back runs inside
//     the event loop, which waits for it to return).
//  2. No calls back into the engine package: schedulers interact with the
//     runtime exclusively through the sched.Env capability they received at
//     Setup (Lock/Charge/RNG/Machine/Cost). Reaching into internal/sim
//     would reenter the event loop mid-call-back.
//  3. No retention of recycled pointers: Done(s) and TaskEnd(t) are the
//     last moments s and t are guaranteed valid — the engine's pools zero
//     and reuse them afterwards. The parameter may be read (and its own
//     fields may be written, e.g. clearing s.Sched), but storing the
//     pointer itself into fields, slices, maps, channels or closures is
//     use-after-free by construction. Add may retain: its strand stays
//     live until the matching Done.
//
// Detection is structural, not interface-based: any method named Add, Get,
// Done or TaskEnd whose signature matches the scheduler shapes (pointer to
// a Strand/Task type declared in a package named "job", plus an int worker)
// is checked, so partial implementations and embedding-based schedulers
// are covered too. The retention check is a per-statement heuristic: it
// flags direct stores of the parameter (assignments to non-local
// locations, append arguments, composite-literal elements, channel sends,
// closure captures) and does not chase aliases through local variables.
package schedcontract

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the schedcontract analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "schedcontract",
	Doc: "enforce scheduler call-back contracts: no goroutines, no calls into the engine, " +
		"no retention of pooled strand/task pointers past Done/TaskEnd",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			kind := callbackKind(pass, fn)
			if kind == "" {
				continue
			}
			checkNoGoroutines(pass, fn, kind)
			checkNoEngineCalls(pass, fn, kind)
			if kind == "Done" || kind == "TaskEnd" {
				if p := firstParam(pass, fn); p != nil {
					checkNoRetention(pass, fn, kind, p)
				}
			}
		}
	}
	return nil
}

// callbackKind classifies fn as one of the scheduler call-backs by name
// and signature shape, returning "" when it is not one.
func callbackKind(pass *analysis.Pass, fn *ast.FuncDecl) string {
	obj := pass.ObjectOf(fn.Name)
	if obj == nil {
		return ""
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return ""
	}
	params, results := sig.Params(), sig.Results()
	isInt := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Kind() == types.Int
	}
	switch fn.Name.Name {
	case "Add", "Done":
		if params.Len() == 2 && isJobPtr(params.At(0).Type(), "Strand") && isInt(params.At(1).Type()) {
			return fn.Name.Name
		}
	case "Get":
		if params.Len() == 1 && isInt(params.At(0).Type()) &&
			results.Len() == 1 && isJobPtr(results.At(0).Type(), "Strand") {
			return "Get"
		}
	case "TaskEnd":
		if params.Len() == 2 && isJobPtr(params.At(0).Type(), "Task") && isInt(params.At(1).Type()) {
			return "TaskEnd"
		}
	case "Setup":
		if params.Len() == 1 && types.IsInterface(params.At(0).Type()) {
			return "Setup"
		}
	}
	return ""
}

// isJobPtr reports whether t is *P.name for a named type declared in a
// package whose import path ends in "job".
func isJobPtr(t types.Type, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && analysis.LastSegment(obj.Pkg().Path()) == "job"
}

// firstParam returns the object of fn's first parameter.
func firstParam(pass *analysis.Pass, fn *ast.FuncDecl) types.Object {
	if len(fn.Type.Params.List) == 0 || len(fn.Type.Params.List[0].Names) == 0 {
		return nil // unnamed parameter cannot be retained
	}
	return pass.ObjectOf(fn.Type.Params.List[0].Names[0])
}

func checkNoGoroutines(pass *analysis.Pass, fn *ast.FuncDecl, kind string) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			pass.Reportf(g.Pos(),
				"scheduler %s must not spawn goroutines: call-backs run synchronously inside the "+
					"single-threaded deterministic engine", kind)
		}
		return true
	})
}

// checkNoEngineCalls flags calls that resolve into the engine package
// (import path ending in "sim"): schedulers may only use the sched.Env
// capability surface.
func checkNoEngineCalls(pass *analysis.Pass, fn *ast.FuncDecl, kind string) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch f := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = f
		case *ast.SelectorExpr:
			id = f.Sel
		default:
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		if analysis.LastSegment(obj.Pkg().Path()) == "sim" && obj.Pkg() != pass.Pkg {
			pass.Reportf(call.Pos(),
				"scheduler %s calls %s.%s: call-backs must not reenter the engine; "+
					"interact with the runtime only through the sched.Env passed to Setup",
				kind, analysis.LastSegment(obj.Pkg().Path()), obj.Name())
		}
		return true
	})
}

// checkNoRetention flags statements that store the Done/TaskEnd parameter
// somewhere that outlives the call.
func checkNoRetention(pass *analysis.Pass, fn *ast.FuncDecl, kind string, param types.Object) {
	isParam := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == param
	}
	what := "strand"
	if kind == "TaskEnd" {
		what = "task"
	}
	report := func(n ast.Node, how string) {
		pass.Reportf(n.Pos(),
			"scheduler %s retains the %s pointer (%s): the engine's pools recycle it after %s returns, "+
				"so any later dereference is use-after-free; copy the fields you need instead",
			kind, what, how, kind)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isParam(rhs) {
					continue
				}
				// Aligned LHS when counts match, else conservatively check all.
				targets := n.Lhs
				if len(n.Lhs) == len(n.Rhs) {
					targets = n.Lhs[i : i+1]
				}
				for _, lhs := range targets {
					if !isLocalVar(pass, lhs) {
						report(n, "stored via assignment")
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.ObjectOf(id).(*types.Builtin); ok && b.Name() == "append" {
					for _, arg := range n.Args {
						if isParam(arg) {
							report(n, "appended to a slice")
						}
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isParam(v) {
					report(elt, "stored in a composite literal")
				}
			}
		case *ast.SendStmt:
			if isParam(n.Value) {
				report(n, "sent on a channel")
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == param {
					report(id, "captured by a closure")
				}
				return true
			})
			return false
		}
		return true
	})
}

// isLocalVar reports whether lhs is a plain identifier bound to a
// function-local (non-package-level) variable or the blank identifier.
func isLocalVar(pass *analysis.Pass, lhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false // selector, index or deref: stores beyond the frame
	}
	if id.Name == "_" {
		return true
	}
	obj := pass.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() != v.Pkg().Scope() && !v.IsField()
}
