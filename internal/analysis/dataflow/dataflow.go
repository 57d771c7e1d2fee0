// Package dataflow computes interprocedural function summaries for the
// lds-lint analyzers: which functions perform a durable lease-store
// write or validate a lease epoch, which publish forward-execution state,
// and which goroutine bodies are joinable from a shutdown path.
//
// Summaries are computed bottom-up over the call graph of the whole
// loaded package set (lint.Pass.AllPkgs) by a monotone fixpoint: every
// summary bit only ever turns on, so iteration to a fixed point
// terminates and handles recursion and mutual recursion by settling on
// the conservative join. Functions with no source in the load
// (export-data-only imports) fall back to the intrinsic table below;
// everything else unknown summarizes to the zero Summary — the "no
// effect" bottom — which makes every analyzer on top of this layer
// under-report rather than false-positive.
//
// Documented approximations: calls through function values, interface
// methods and other dynamic dispatch resolve to no callee and therefore
// no effect; goroutine joinability propagates only through deferred
// calls, because a plain call that happens to signal some other
// WaitGroup must not make a fire-and-forget goroutine look joinable.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"

	"github.com/lds-storage/lds/internal/analysis/lint"
)

// Summary is the interprocedural abstract of one function.
type Summary struct {
	// LeaseDurable: the function performs (directly or via a callee) a
	// lease-store mutation, which is fsync'd before it returns.
	LeaseDurable bool
	// EpochFence: the function compares a lease Epoch or calls Held —
	// evidence that a mutation validated the observed epoch.
	EpochFence bool
	// RecordsForwardDone: writes a catalog.Record{Type: TypeForwardDone}.
	RecordsForwardDone bool
	// SendsForwardResp: sends a wire.PeerForwardResp to a peer.
	SendsForwardResp bool
	// Joins: the function body is joinable from a shutdown path — it
	// signals a WaitGroup, closes a done channel, or blocks on a stop
	// channel / context Done. Only deferred calls propagate it.
	Joins bool
}

// merge folds src into dst, reporting whether dst grew.
func (dst *Summary) merge(src *Summary) bool {
	changed := false
	orInto := func(d *bool, s bool) {
		if s && !*d {
			*d = true
			changed = true
		}
	}
	orInto(&dst.LeaseDurable, src.LeaseDurable)
	orInto(&dst.EpochFence, src.EpochFence)
	orInto(&dst.RecordsForwardDone, src.RecordsForwardDone)
	orInto(&dst.SendsForwardResp, src.SendsForwardResp)
	orInto(&dst.Joins, src.Joins)
	return changed
}

// fn is one summarizable function: a declared function or method with a
// body, or a function literal.
type fn struct {
	body *ast.BlockStmt
	pkg  *lint.Package
	sum  Summary
}

// Table holds the fixpoint summaries of one loaded package set.
type Table struct {
	byObj map[*types.Func]*fn
	byLit map[*ast.FuncLit]*fn
}

// One table per lint.Run: RunWithStats hands every Pass the same AllPkgs
// slice, so the slice's first element identifies the run.
var (
	cacheMu    sync.Mutex
	cacheKey   *lint.Package
	cacheTable *Table
)

// For returns the summary table for the Pass's package set, computing it
// on first use and memoizing it for every later analyzer of the same
// run.
func For(pass *lint.Pass) *Table {
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

// Of returns the summary of the called object: the fixpoint summary if
// the function's source was loaded, the intrinsic summary if it is one
// of the known resource primitives, nil otherwise (no information — the
// caller must assume no effect).
func (t *Table) Of(obj types.Object) *Summary {
	fnObj, ok := obj.(*types.Func)
	if !ok || fnObj == nil {
		return nil
	}
	if f, ok := t.byObj[fnObj]; ok {
		return &f.sum
	}
	if s := intrinsic(fnObj); s != nil {
		return s
	}
	return nil
}

// OfLit returns the summary of a function literal in the loaded set, or
// nil.
func (t *Table) OfLit(lit *ast.FuncLit) *Summary {
	if f, ok := t.byLit[lit]; ok {
		return &f.sum
	}
	return nil
}

// CalleeSummary resolves a call expression to its callee's summary, or
// nil for dynamic dispatch and unknown callees.
func (t *Table) CalleeSummary(info *types.Info, call *ast.CallExpr) *Summary {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return t.OfLit(lit)
	}
	return t.Of(lint.CalleeOf(info, call))
}

// build collects every function with a body and iterates summaries to a
// fixed point. The lattice is finite and every step monotone, so the
// loop terminates; the round cap is a belt against a non-monotone bug,
// not a tuning knob.
func build(pkgs []*lint.Package) *Table {
	t := &Table{
		byObj: make(map[*types.Func]*fn),
		byLit: make(map[*ast.FuncLit]*fn),
	}
	var order []*fn
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncDecl:
					if x.Body == nil {
						return true
					}
					obj, _ := pkg.Info.Defs[x.Name].(*types.Func)
					if obj == nil {
						return true
					}
					f := &fn{body: x.Body, pkg: pkg}
					if s := intrinsic(obj); s != nil {
						f.sum.merge(s)
					}
					t.byObj[obj] = f
					order = append(order, f)
				case *ast.FuncLit:
					f := &fn{body: x.Body, pkg: pkg}
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
			ns := t.summarize(f)
			if f.sum.merge(&ns) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return t
}

// intrinsic is the axiomatic summary table for the methods whose effect
// the analyzers must know even when only export data was loaded. It
// matches by package-path suffix and type name so the synthetic packages
// of test fixtures qualify exactly like the real module.
func intrinsic(obj *types.Func) *Summary {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	recv := sig.Recv().Type()
	switch {
	case lint.IsNamed(recv, "internal/catalog", "LeaseStore"):
		switch obj.Name() {
		case "Claim", "Renew", "Release", "Adopt", "mutate":
			return &Summary{LeaseDurable: true}
		}
	case lint.IsNamed(recv, "internal/catalog", "Lease") && obj.Name() == "Held":
		return &Summary{EpochFence: true}
	case lint.IsNamed(recv, "sync", "WaitGroup") && obj.Name() == "Done":
		return &Summary{Joins: true}
	}
	return nil
}

// summarize recomputes f's summary from its body against the current
// table. It never mutates the table; the caller merges.
func (t *Table) summarize(f *fn) Summary {
	info := f.pkg.Info
	var s Summary
	// Main walk: effect evidence, descending into nested literals (a
	// closure's effects are the enclosing function's too; nested literals
	// also get their own entry).
	ast.Inspect(f.body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			cs := t.CalleeSummary(info, x)
			if cs != nil {
				s.LeaseDurable = s.LeaseDurable || cs.LeaseDurable
				s.EpochFence = s.EpochFence || cs.EpochFence
				s.RecordsForwardDone = s.RecordsForwardDone || cs.RecordsForwardDone
				s.SendsForwardResp = s.SendsForwardResp || cs.SendsForwardResp
			}
			if isForwardRespSend(info, x) {
				s.SendsForwardResp = true
			}
		case *ast.SendStmt:
			if isType(info, x.Value, "internal/wire", "PeerForwardResp") {
				s.SendsForwardResp = true
			}
		case *ast.BinaryExpr:
			if isComparison(x.Op) && (isEpochSelector(x.X) || isEpochSelector(x.Y)) {
				s.EpochFence = true
			}
		case *ast.CompositeLit:
			if isForwardDoneRecord(info, x) {
				s.RecordsForwardDone = true
			}
		}
		return true
	})

	s.Joins = t.joins(f)
	return s
}

// joins scans f's body for shutdown-joinability evidence: a WaitGroup
// Done, a close of a done channel, a receive from a struct-held stop
// channel or a context Done. Goroutines launched inside f are skipped —
// their joinability is their own — and callee Joins summaries propagate
// only through deferred calls: running `defer cleanup()` on every exit
// is a join signal, while a plain call into something that happens to
// Done() a WaitGroup is not.
func (t *Table) joins(f *fn) bool {
	info := f.pkg.Info
	joins := false
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if joins {
			return false
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			if cs := t.CalleeSummary(info, x.Call); cs != nil && cs.Joins {
				joins = true
			}
			return true // descend: defer close(ch), defer func(){...}()
		case *ast.CallExpr:
			if isCloseBuiltin(info, x) || isWgDone(info, x) {
				joins = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && isStopRecv(x.X) {
				joins = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					joins = true
				}
			}
		}
		return true
	}
	ast.Inspect(f.body, visit)
	return joins
}

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
}

// isEpochSelector reports whether e is a `<x>.Epoch` selector.
func isEpochSelector(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Epoch"
}

// isType reports whether e's static type is (a pointer to) the named
// type in a package with the given path suffix.
func isType(info *types.Info, e ast.Expr, pkgSuffix, name string) bool {
	tv, ok := info.Types[e]
	return ok && lint.IsNamed(tv.Type, pkgSuffix, name)
}

// isForwardRespSend matches `<endpoint>.Send(..., resp)` where some
// argument is a wire.PeerForwardResp.
func isForwardRespSend(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Send" {
		return false
	}
	for _, arg := range call.Args {
		if isType(info, arg, "internal/wire", "PeerForwardResp") {
			return true
		}
	}
	return false
}

// isForwardDoneRecord matches catalog.Record{Type: TypeForwardDone, ...}.
func isForwardDoneRecord(info *types.Info, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[lit]
	if !ok || !lint.IsNamed(tv.Type, "internal/catalog", "Record") {
		return false
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Type" {
			continue
		}
		switch v := ast.Unparen(kv.Value).(type) {
		case *ast.Ident:
			return v.Name == "TypeForwardDone"
		case *ast.SelectorExpr:
			return v.Sel.Name == "TypeForwardDone"
		}
	}
	return false
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

// isWgDone matches a direct (*sync.WaitGroup).Done call.
func isWgDone(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	obj := info.Uses[sel.Sel]
	fnObj, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fnObj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return lint.IsNamed(sig.Recv().Type(), "sync", "WaitGroup")
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
