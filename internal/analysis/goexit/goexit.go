// Package goexit enforces that every goroutine launched in the
// long-running subsystems — internal/gateway, internal/nodehost,
// internal/transport (the shared actor runtime) and
// internal/transport/tcpnet — is joinable from a shutdown path. A
// goroutine with no join outlives Close: it races the test harness,
// touches freed resources (pooled frames, closed stores), and turns
// clean shutdowns into flakes.
//
// The rule: the function a `go` statement launches must carry the
// dataflow Joins bit — its body (or a helper it defers to) closes a
// done channel, calls WaitGroup.Done, receives from a stop channel or a
// Done() context, or ranges over a channel until it closes. Any of
// these gives shutdown a handle to wait on.
//
// Approximations: `go fn()` through a function value or interface has
// no resolvable callee and is skipped, and the Joins evidence is
// syntactic — a close of the wrong channel still counts. Under-
// reporting, as everywhere in lds-lint.
package goexit

import (
	"go/ast"

	"github.com/lds-storage/lds/internal/analysis/dataflow"
	"github.com/lds-storage/lds/internal/analysis/lint"
)

// Analyzer is the goexit checker.
var Analyzer = &lint.Analyzer{
	Name: "goexit",
	Doc:  "every goroutine in gateway/nodehost/transport/tcpnet must be joinable from a shutdown path",
	Run:  run,
}

var scoped = []string{
	"internal/gateway",
	"internal/nodehost",
	"internal/transport",
	"internal/transport/tcpnet",
}

func run(pass *lint.Pass) error {
	inScope := false
	for _, p := range scoped {
		if lint.PathHasSuffix(pass.Pkg.Path(), p) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	sums := dataflow.For(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			check(pass, sums, gs)
			return true
		})
	}
	return nil
}

func check(pass *lint.Pass, sums *dataflow.Table, gs *ast.GoStmt) {
	var (
		sum  *dataflow.Summary
		name string
	)
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		sum = sums.OfLit(lit)
		name = "the goroutine literal"
	} else if fn := lint.CalleeOf(pass.Info, gs.Call); fn != nil {
		sum = sums.Of(fn)
		name = fn.Name()
	}
	if sum == nil {
		return // indirect launch: no resolvable callee, documented skip
	}
	if !sum.Joins {
		pass.Reportf(gs.Pos(), "goroutine %s is not joinable: no done-channel close, deferred WaitGroup.Done, or stop-signal receive; shutdown cannot wait for it", name)
	}
}
