// Package locksend flags potentially-blocking operations performed while
// holding a sync.Mutex or sync.RWMutex in internal/gateway, internal/nodehost
// and internal/lds — where only the runtime adaptor holds locks, because the
// protocol machines take none: its per-process lock must never be held across
// a send. A channel send, a net.Conn read/write, a transport Send, the
// adaptor's outbox flush, or one of the known blocking control RPCs executed
// under a lock couples lock hold time to peer and network latency — the
// repo's locking rule is copy-under-lock, send-outside-lock.
//
// What counts as blocking while a lock is held:
//
//   - a channel send statement, or any send/receive arm of a select that
//     has no default clause (a select with default polls and cannot block);
//   - Read/Write/ReadFrom/WriteTo on a net type (net.Conn, net.TCPConn, ...);
//   - a Send method that takes an internal/wire parameter (the transport
//     send surface, whatever the concrete transport), and the lds adaptor's
//     process.flush, which sends a step's outbox;
//   - the gateway's at-least-once control RPCs (remoteManager.call, the
//     generic request and their wrappers), its per-node fan-out eachNode,
//     which waits for every node, and time.Sleep.
//
// Disk I/O is deliberately NOT in the list: the gateway's write-ahead
// catalog fsyncs under the route lock by design (see
// internal/gateway/catalog.go), and the rule this analyzer enforces is
// about unbounded peer-coupled waits, not bounded local ones.
//
// The analysis is a linear, per-function walk: Lock/RLock on a
// sync.(RW)Mutex-typed expression marks it held, Unlock/RUnlock releases
// it, a deferred Unlock holds it to function end. Branch bodies are
// walked with a copy of the held set and do not propagate lock-state
// changes past the branch — the conservative reading of the repo's
// lock-then-defer style. Function literals get a fresh (empty) held set:
// they run on their own goroutine or later, not under the current locks.
package locksend

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/lds-storage/lds/internal/analysis/lint"
)

// Analyzer is the locksend checker.
var Analyzer = &lint.Analyzer{
	Name: "locksend",
	Doc:  "no channel sends, conn writes, transport sends or blocking control RPCs while holding a mutex in internal/gateway, internal/nodehost, or the internal/lds runtime adaptor (whose outbox flush must follow its unlock)",
	Run:  run,
}

// gatedPackages are the path suffixes the analyzer applies to.
var gatedPackages = []string{
	"internal/gateway",
	"internal/lds",
	"internal/nodehost",
}

// blockingMethods are known blocking calls named by receiver type and
// method. Receiver package "" matches any package.
var blockingMethods = []struct {
	pkgSuffix string
	recv      string
	method    string
	what      string
}{
	{"internal/gateway", "remoteManager", "call", "at-least-once control RPC"},
	{"internal/gateway", "remoteManager", "serveNode", "control RPC"},
	{"internal/gateway", "remoteManager", "serveGroup", "control RPC"},
	{"internal/gateway", "remoteManager", "sampleStats", "control RPC"},
	{"internal/gateway", "remoteManager", "reconcile", "control RPC"},
	{"internal/gateway", "remoteManager", "elemFetch", "control RPC"},
	{"internal/gateway", "remoteManager", "elemRepair", "control RPC"},
	{"", "Network", "Drain", "transport drain"},
	{"internal/lds", "process", "flush", "outbox flush"},
}

// blockingFuncs are package-level blocking functions.
var blockingFuncs = []struct {
	pkgSuffix string
	name      string
	what      string
}{
	{"time", "Sleep", "sleep"},
	{"internal/gateway", "request", "control RPC"},
	{"internal/gateway", "eachNode", "per-node control RPC fan-out"},
}

func run(pass *lint.Pass) error {
	gated := false
	for _, p := range gatedPackages {
		if lint.PathHasSuffix(pass.Pkg.Path(), p) {
			gated = true
			break
		}
	}
	if !gated {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			w := &walker{pass: pass, held: map[string]token.Pos{}}
			w.walkStmts(fn.Body.List)
			// Function literals anywhere in the function run with their
			// own, initially-empty held set.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					lw := &walker{pass: pass, held: map[string]token.Pos{}}
					lw.walkStmts(lit.Body.List)
					return false
				}
				return true
			})
		}
	}
	return nil
}

type walker struct {
	pass *lint.Pass
	held map[string]token.Pos // lock expression -> position of the Lock call
}

func (w *walker) clone() *walker {
	c := &walker{pass: w.pass, held: make(map[string]token.Pos, len(w.held))}
	for k, v := range w.held {
		c.held[k] = v
	}
	return c
}

func (w *walker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

func (w *walker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if w.lockOp(call) {
				return
			}
		}
		w.checkExpr(s.X)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end; any
		// other deferred call runs after the body, outside this walk.
		return
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's locks.
		return
	case *ast.SendStmt:
		w.checkExpr(s.Chan)
		w.checkExpr(s.Value)
		if len(w.held) > 0 {
			w.report(s.Pos(), "channel send")
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.checkExpr(e)
		}
		for _, e := range s.Lhs {
			w.checkExpr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.checkExpr(e)
		}
	case *ast.IncDecStmt:
		w.checkExpr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.checkExpr(e)
					}
				}
			}
		}
	case *ast.BlockStmt:
		w.walkStmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.checkExpr(s.Cond)
		w.clone().walkStmts(s.Body.List)
		if s.Else != nil {
			w.clone().walkStmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond)
		}
		w.clone().walkStmts(s.Body.List)
	case *ast.RangeStmt:
		w.checkExpr(s.X)
		w.clone().walkStmts(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.clone().walkStmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.clone().walkStmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm != nil && !hasDefault && len(w.held) > 0 {
				w.report(cc.Comm.Pos(), "blocking select arm")
			}
			w.clone().walkStmts(cc.Body)
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	}
}

// lockOp handles mu.Lock/RLock/Unlock/RUnlock, updating the held set;
// it reports true when the call was a lock operation.
func (w *walker) lockOp(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "RLock" && name != "Unlock" && name != "RUnlock" {
		return false
	}
	if !isMutex(w.pass.Info.Types[sel.X].Type) {
		return false
	}
	key := types.ExprString(sel.X)
	switch name {
	case "Lock", "RLock":
		w.held[key] = call.Pos()
	case "Unlock", "RUnlock":
		delete(w.held, key)
	}
	return true
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex (or a pointer
// to one).
func isMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return lint.IsNamed(t, "sync", "Mutex") || lint.IsNamed(t, "sync", "RWMutex")
}

// checkExpr flags blocking calls inside e. Function literals are skipped
// here — run gives each its own walker.
func (w *walker) checkExpr(e ast.Expr) {
	if e == nil || len(w.held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			w.checkCall(n)
		}
		return true
	})
}

func (w *walker) checkCall(call *ast.CallExpr) {
	obj := lint.CalleeOf(w.pass.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if recv := sig.Recv(); recv != nil {
		named := lint.NamedType(recv.Type())
		if named == nil {
			// Interface method: net.Conn's methods reach here via the
			// interface receiver; match by enclosing package instead.
			if fn.Pkg() != nil && fn.Pkg().Path() == "net" && isIOMethod(fn.Name()) {
				w.report(call.Pos(), fmt.Sprintf("net %s", fn.Name()))
			}
			return
		}
		recvName := named.Obj().Name()
		recvPkg := ""
		if named.Obj().Pkg() != nil {
			recvPkg = named.Obj().Pkg().Path()
		}
		if recvPkg == "net" && isIOMethod(fn.Name()) {
			w.report(call.Pos(), fmt.Sprintf("net.%s.%s", recvName, fn.Name()))
			return
		}
		if fn.Name() == "Send" && hasWireParam(sig) {
			w.report(call.Pos(), "transport Send")
			return
		}
		for _, bm := range blockingMethods {
			if bm.method != fn.Name() || bm.recv != recvName {
				continue
			}
			if bm.pkgSuffix == "" || lint.PathHasSuffix(recvPkg, bm.pkgSuffix) {
				w.report(call.Pos(), fmt.Sprintf("%s %s.%s", bm.what, recvName, fn.Name()))
				return
			}
		}
		return
	}
	if fn.Pkg() == nil {
		return
	}
	for _, bf := range blockingFuncs {
		if bf.name == fn.Name() && lint.PathHasSuffix(fn.Pkg().Path(), bf.pkgSuffix) {
			w.report(call.Pos(), fmt.Sprintf("%s %s.%s", bf.what, fn.Pkg().Name(), fn.Name()))
			return
		}
	}
}

func isIOMethod(name string) bool {
	switch name {
	case "Read", "Write", "ReadFrom", "WriteTo":
		return true
	}
	return false
}

// hasWireParam reports whether any parameter of sig has a named type
// from internal/wire — the shape of the transport send surface.
func hasWireParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		named := lint.NamedType(sig.Params().At(i).Type())
		if named != nil && named.Obj().Pkg() != nil && lint.PathHasSuffix(named.Obj().Pkg().Path(), "internal/wire") {
			return true
		}
	}
	return false
}

func (w *walker) report(pos token.Pos, what string) {
	keys := make([]string, 0, len(w.held))
	for k := range w.held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.pass.Reportf(pos, "%s while holding %s: copy under the lock, send outside it", what, strings.Join(keys, ", "))
}
