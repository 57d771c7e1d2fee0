// Package goexit enforces that every goroutine launched in the
// long-running subsystems — internal/gateway, internal/nodehost,
// internal/transport (the shared actor runtime) and
// internal/transport/tcpnet — is joinable from a shutdown path. A
// goroutine with no join outlives Close: it races the test harness,
// touches freed resources (closed connections and stores), and turns
// clean shutdowns into flakes.
//
// The rule: the function a `go` statement launches must be joinable —
// its body (or a helper it defers to) closes a done channel, calls
// WaitGroup.Done, receives from a stop channel or a Done() context, or
// ranges over a channel until it closes. Any of these gives shutdown a
// handle to wait on.
//
// Joinability is computed bottom-up over the call graph of the whole
// loaded package set (lint.Pass.AllPkgs) by a monotone fixpoint: the bit
// only ever turns on, so iteration terminates and settles recursion and
// mutual recursion. It propagates only through deferred calls, because a
// plain call that happens to signal some other WaitGroup must not make a
// fire-and-forget goroutine look joinable. A callee with no source in the
// load (export data only) is joinable only if it is sync.WaitGroup.Done.
//
// Approximations: `go fn()` through a function value or interface has
// no resolvable callee and is skipped, and the evidence is syntactic — a
// close of the wrong channel still counts. Under-reporting, as everywhere
// in lds-lint.
package goexit

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"

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
	joins := tableFor(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			check(pass, joins, gs)
			return true
		})
	}
	return nil
}

func check(pass *lint.Pass, joins *table, gs *ast.GoStmt) {
	var (
		f    *fn
		name string
	)
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		f = joins.byLit[lit]
		name = "the goroutine literal"
	} else if obj, ok := lint.CalleeOf(pass.Info, gs.Call).(*types.Func); ok {
		f = joins.byObj[obj]
		name = obj.Name()
	}
	if f == nil {
		return // indirect launch, or no source: documented skip
	}
	if !f.joins {
		pass.Reportf(gs.Pos(), "goroutine %s is not joinable: no done-channel close, deferred WaitGroup.Done, or stop-signal receive; shutdown cannot wait for it", name)
	}
}

// fn is one function with a body — a declared function or method, or a
// function literal — and its joinability so far.
type fn struct {
	body  *ast.BlockStmt
	info  *types.Info
	joins bool
}

// table holds the fixpoint joinability of one loaded package set.
type table struct {
	byObj map[*types.Func]*fn
	byLit map[*ast.FuncLit]*fn
}

// One table per lint.Run: RunWithStats hands every Pass the same AllPkgs
// slice, so the slice's first element identifies the run.
var (
	cacheMu    sync.Mutex
	cacheKey   *lint.Package
	cacheTable *table
)

// tableFor returns the table for the Pass's package set, building it on
// the run's first package and reusing it for the rest.
func tableFor(pass *lint.Pass) *table {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	var key *lint.Package
	if len(pass.AllPkgs) > 0 {
		key = pass.AllPkgs[0]
	}
	if key != nil && key == cacheKey {
		return cacheTable
	}
	t := build(pass.AllPkgs)
	cacheKey, cacheTable = key, t
	return t
}

// build collects every function with a body and iterates joinability to
// a fixed point. The bit is monotone, so the loop terminates; the round
// cap is a belt against a non-monotone bug, not a tuning knob.
func build(pkgs []*lint.Package) *table {
	t := &table{
		byObj: make(map[*types.Func]*fn),
		byLit: make(map[*ast.FuncLit]*fn),
	}
	var order []*fn
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncDecl:
					if obj, _ := pkg.Info.Defs[x.Name].(*types.Func); obj != nil && x.Body != nil {
						f := &fn{body: x.Body, info: pkg.Info}
						t.byObj[obj] = f
						order = append(order, f)
					}
				case *ast.FuncLit:
					f := &fn{body: x.Body, info: pkg.Info}
					t.byLit[x] = f
					order = append(order, f)
				}
				return true
			})
		}
	}
	for round := 0; round < 64; round++ {
		changed := false
		for _, f := range order {
			if !f.joins && t.scan(f) {
				f.joins = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return t
}

// joins reports whether a deferred call's callee is joinable: a function
// literal or sourced function by its fixpoint bit, an export-data-only
// callee only if it is sync.WaitGroup.Done.
func (t *table) joins(info *types.Info, call *ast.CallExpr) bool {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		f := t.byLit[lit]
		return f != nil && f.joins
	}
	obj, ok := lint.CalleeOf(info, call).(*types.Func)
	if !ok {
		return false
	}
	if f, ok := t.byObj[obj]; ok {
		return f.joins
	}
	return isWaitGroupDone(obj)
}

// scan looks for joinability evidence in f's body against the current
// table: a WaitGroup Done, a close of a done channel, a receive from a
// struct-held stop channel or a context Done, a range over a channel, or
// a deferred call into something joinable. Goroutines launched inside f
// are skipped — their joinability is their own.
func (t *table) scan(f *fn) bool {
	found := false
	ast.Inspect(f.body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			found = t.joins(f.info, x.Call)
			return true // descend: defer close(ch), defer func(){...}()
		case *ast.CallExpr:
			if isCloseBuiltin(f.info, x) {
				found = true
			} else if obj, ok := lint.CalleeOf(f.info, x).(*types.Func); ok && isWaitGroupDone(obj) {
				found = true
			}
		case *ast.UnaryExpr:
			found = x.Op == token.ARROW && isStopRecv(x.X)
		case *ast.RangeStmt:
			if tv, ok := f.info.Types[x.X]; ok {
				_, found = tv.Type.Underlying().(*types.Chan)
			}
		}
		return true
	})
	return found
}

// isWaitGroupDone matches (*sync.WaitGroup).Done.
func isWaitGroupDone(obj *types.Func) bool {
	sig, ok := obj.Type().(*types.Signature)
	return ok && sig.Recv() != nil && obj.Name() == "Done" && lint.IsNamed(sig.Recv().Type(), "sync", "WaitGroup")
}

// isCloseBuiltin matches close(ch).
func isCloseBuiltin(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isStopRecv reports whether a receive's operand looks like a shutdown
// signal: a struct-held channel (`<-f.stop`, `<-ticker.C`) or a context
// Done (`<-ctx.Done()`). A receive from a plain local work channel is
// deliberately not evidence.
func isStopRecv(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "Done"
		}
	}
	return false
}
