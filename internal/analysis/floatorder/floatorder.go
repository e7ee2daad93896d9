// Package floatorder flags floating-point accumulation whose evaluation
// order is not fixed: shared float/complex accumulators updated inside
// bare goroutines, inside closures handed to the internal/parallel pool,
// or across map iterations. Float addition is not associative, so
// unordered accumulation yields bitwise-different sums from run to run —
// the invariant behind simgraph's "integer merge before any float
// accumulation" design (PR 2) and Louvain's sorted-adjacency sums (PR 3).
//
// Accumulators declared inside the unordered region (a per-slot shard, a
// per-iteration subtotal) are fine: whatever builds locally is merged
// later in a deterministic order, which is exactly the sanctioned pattern.
package floatorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"mawilab/internal/analysis"
)

// Analyzer is the floatorder check.
var Analyzer = &analysis.Analyzer{
	Name: "floatorder",
	Doc:  "flags order-sensitive floating-point accumulation in goroutines, pool closures and map ranges",
	Run:  run,
}

// parallelPkg is the one package whose helpers run closures concurrently
// by design; any func literal passed into it executes in unordered slots.
const parallelPkg = "mawilab/internal/parallel"

func run(pass *analysis.Pass) error {
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch node := n.(type) {
		case *ast.GoStmt:
			if lit, ok := node.Call.Fun.(*ast.FuncLit); ok {
				checkRegion(pass, lit, lit.Body, "goroutine")
			}
		case *ast.CallExpr:
			if fn := pass.Callee(node); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == parallelPkg {
				for _, arg := range node.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						checkRegion(pass, lit, lit.Body, "parallel worker")
					}
				}
			}
		case *ast.RangeStmt:
			if analysis.IsMap(pass.TypeOf(node.X)) {
				checkRegion(pass, node, node.Body, "map range")
			}
		}
		return true
	})
	return nil
}

// checkRegion flags float accumulation inside body whose target is
// declared outside region — i.e. shared state updated in unordered slots.
func checkRegion(pass *analysis.Pass, region ast.Node, body *ast.BlockStmt, kind string) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			report(pass, region, as.Lhs[0], as.Pos(), kind)
		case token.ASSIGN:
			// The spelled-out form: x = x + y (or -, *, /).
			if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			bin, ok := as.Rhs[0].(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch bin.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO:
			default:
				return true
			}
			lhs := types.ExprString(as.Lhs[0])
			if types.ExprString(bin.X) == lhs || types.ExprString(bin.Y) == lhs {
				report(pass, region, as.Lhs[0], as.Pos(), kind)
			}
		}
		return true
	})
}

func report(pass *analysis.Pass, region ast.Node, lhs ast.Expr, pos token.Pos, kind string) {
	if !analysis.IsFloat(pass.TypeOf(lhs)) {
		return
	}
	root := analysis.RootIdent(lhs)
	if root == nil {
		return
	}
	obj := pass.ObjectOf(root)
	if obj == nil || analysis.DeclaredWithin(obj, region) {
		return // local subtotal, merged deterministically later
	}
	pass.Reportf(pos, "floating-point accumulation into %q inside a %s is order-sensitive; accumulate into a local and merge in canonical order", root.Name, kind)
}
