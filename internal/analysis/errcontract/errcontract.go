// Package errcontract implements the hydra-vet analyzer enforcing the RTA
// divergence contract.
//
// The ...Full response-time analyses (ResponseTimeFull,
// ExactSecurityResponseTimeFull, BusyPeriodFull,
// ResponseTimeWithJitterBlockingFull) exist precisely to separate two
// outcomes the legacy API folds together: a *proven* deadline miss and a
// blown MaxRTAIterations budget where the true response time is unknown.
// A caller that reaches for the Full variant and then ignores the trailing
// `converged` result has silently rebuilt the legacy fold — a blown
// iteration budget reads as a proven miss again, which is the exact bug
// class once fixed in core.VerifyExact.
//
// errcontract flags call sites of the Full variants that discard the
// converged result (statement-position calls, `_` in the assignment, or a
// variable that is never subsequently read). The documented legacy wrappers
// inside internal/rts fold deliberately and carry //lint:allow annotations.
package errcontract

import (
	"go/ast"
	"go/types"

	"hydra/internal/analysis"
)

// Functions names the Full-contract analyses, all in internal/rts, whose
// last result is the converged verdict.
var Functions = map[string]bool{
	"ResponseTimeFull":                   true,
	"ExactSecurityResponseTimeFull":      true,
	"BusyPeriodFull":                     true,
	"ResponseTimeWithJitterBlockingFull": true,
}

// Analyzer is the errcontract check.
var Analyzer = &analysis.Analyzer{
	Name: "errcontract",
	Doc: `require callers of the ...Full RTA variants to branch on the converged result

The Full analyses return (value, verdict, converged); converged=false means
the iteration budget blew before a fixed point, so the verdict is
conservative, not proven. Discarding converged (statement call, assigning it
to _, or never reading the variable) silently turns "budget exhausted" back
into "proven deadline miss". Branch on it, forward it, or use the documented
legacy wrapper that folds the two on purpose.`,
	Run: run,
}

// isFullCall reports whether call invokes one of the tracked analyses and
// returns its result count.
func isFullCall(pass *analysis.Pass, call *ast.CallExpr) (int, bool) {
	fn := analysis.Callee(pass.Info, call)
	if fn == nil || !Functions[fn.Name()] || fn.Pkg() == nil || !analysis.PathHasSuffix(fn.Pkg().Path(), "internal/rts") {
		return 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return 0, false
	}
	return sig.Results().Len(), true
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// reads[obj] counts real reads of obj: uses excluding `_ = obj`
	// discards, which exist only to silence the compiler.
	reads := map[types.Object]int{}
	discards := map[*ast.Ident]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if lhs, ok := as.Lhs[0].(*ast.Ident); ok && lhs.Name == "_" {
				if rhs, ok := ast.Unparen(as.Rhs[0]).(*ast.Ident); ok {
					discards[rhs] = true
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !discards[id] {
			if obj, ok := pass.Info.Uses[id].(*types.Var); ok {
				reads[obj]++
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if _, ok := isFullCall(pass, call); ok {
					pass.Reportf(call.Pos(), "all results of %s discarded: the converged verdict is lost, so a blown iteration budget is indistinguishable from a proven miss", callName(call))
				}
			}
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			nres, ok := isFullCall(pass, call)
			if !ok || len(st.Lhs) != nres {
				return true
			}
			conv, ok := st.Lhs[nres-1].(*ast.Ident)
			if !ok {
				return true
			}
			if conv.Name == "_" {
				pass.Reportf(call.Pos(), "converged result of %s assigned to _: a blown iteration budget now reads as a proven miss — branch on it or use the documented legacy wrapper", callName(call))
				return true
			}
			obj := objOf(pass, conv)
			if obj == nil {
				return true
			}
			if reads[obj] == 0 {
				pass.Reportf(call.Pos(), "converged result of %s assigned to %s but never read: branch on it (or forward it) so a blown iteration budget is not misread as a proven miss", callName(call), conv.Name)
			}
		}
		return true
	})
}

func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "call"
}

func objOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}
