// Package ctxflow enforces context propagation through the long-running
// entry points of the suite. Sweeps, tuner searches, and daemon jobs are
// cancelled through context; a call site that silently swaps in
// context.Background() detaches the whole subtree from cancellation, which
// is how runaway sweep jobs survive a daemon shutdown.
//
// Two rules:
//
//  1. A function that already has a context.Context (or *http.Request)
//     parameter must not pass context.Background() or context.TODO() to a
//     context-accepting callee — thread the parameter (or r.Context())
//     instead.
//  2. An exported method on an Engine/Runner/*Server type that calls
//     context-accepting callees must itself accept a context.Context, so
//     callers can cancel it.
//
// Deliberately detached work (a job that must outlive its HTTP request)
// is annotated //fusleepvet:ctx-ok with a justification.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/archsim/fusleep/internal/analysis"
)

// Analyzer is the ctxflow pass. It applies to every package in the module.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "enforce context.Context propagation through Engine/Runner/server entry points",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	hasCtx := hasParamType(pass, fn, isContext)
	hasReq := hasParamType(pass, fn, isHTTPRequestPtr)

	// Rule 1: a context is in scope — don't manufacture a fresh one.
	if hasCtx || hasReq {
		source := "the context parameter"
		if !hasCtx {
			source = "r.Context()"
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				name, ok := freshContextCall(pass, arg)
				if !ok {
					continue
				}
				if pass.Directives().Suppressed(arg.Pos(), analysis.DirCtxOK) {
					continue
				}
				pass.Reportf(arg.Pos(),
					"context.%s passed to %s detaches it from cancellation while %s is in scope; thread %s or annotate //fusleepvet:ctx-ok",
					name, calleeName(call), source, source)
			}
			return true
		})
	}

	// Rule 2: exported entry points on long-running types must be
	// cancellable if anything they call is.
	if hasCtx || !fn.Name.IsExported() || !onEntryType(pass, fn) {
		return
	}
	if pass.Directives().FuncMarked(fn, analysis.DirCtxOK) {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !calleeTakesContext(pass, call) {
			return true
		}
		if pass.Directives().Suppressed(call.Pos(), analysis.DirCtxOK) {
			return true
		}
		recv := receiverTypeName(pass, fn)
		pass.Reportf(fn.Name.Pos(),
			"exported %s.%s calls context-accepting %s but takes no context.Context; add a ctx parameter so callers can cancel, or annotate //fusleepvet:ctx-ok",
			recv, fn.Name.Name, calleeName(call))
		return false // one report per function is enough
	})
}

// hasParamType reports whether any parameter of fn satisfies pred.
func hasParamType(pass *analysis.Pass, fn *ast.FuncDecl, pred func(types.Type) bool) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && pred(tv.Type) {
			return true
		}
	}
	return false
}

func isContext(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func isHTTPRequestPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// freshContextCall reports context.Background() / context.TODO() calls,
// returning the function name.
func freshContextCall(pass *analysis.Pass, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pkg.Imported().Path() != "context" {
		return "", false
	}
	if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
		return "", false
	}
	return sel.Sel.Name, true
}

// entryTypeNames are the receiver-name shapes that mark long-running entry
// points: sweep/search engines, experiment runners, and daemon servers.
func isEntryTypeName(name string) bool {
	return name == "Engine" || name == "Runner" ||
		strings.HasSuffix(name, "Engine") || strings.HasSuffix(name, "Runner") ||
		strings.HasSuffix(name, "Server")
}

// onEntryType reports whether fn is a method whose receiver type name marks
// a long-running entry point.
func onEntryType(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	return isEntryTypeName(receiverTypeName(pass, fn))
}

// receiverTypeName returns the name of fn's receiver type ("" for plain
// functions).
func receiverTypeName(pass *analysis.Pass, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	tv, ok := pass.TypesInfo.Types[fn.Recv.List[0].Type]
	if !ok {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// calleeTakesContext reports whether the call's callee signature has a
// context.Context parameter.
func calleeTakesContext(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContext(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// calleeName renders a short name for the call target, for messages.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "callee"
}
