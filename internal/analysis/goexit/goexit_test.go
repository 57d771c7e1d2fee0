package goexit

import (
	"go/types"
	"testing"

	"github.com/lds-storage/lds/internal/analysis/lint"
)

func TestGoexit(t *testing.T) {
	lint.RunFixture(t, Analyzer, "testdata/src")
}

// loadTable builds the joinability table over the fixture package set and
// returns it with the fixture's gateway package.
func loadTable(t *testing.T) (*table, *lint.Package) {
	t.Helper()
	pkgs, err := lint.LoadFixture("testdata/src")
	if err != nil {
		t.Fatalf("LoadFixture: %v", err)
	}
	for _, pkg := range pkgs {
		if lint.PathHasSuffix(pkg.PkgPath, "internal/gateway") {
			return build(pkgs), pkg
		}
	}
	t.Fatal("fixture has no internal/gateway package")
	return nil, nil
}

// methodOf resolves a method declared on a named type of pkg.
func methodOf(t *testing.T, pkg *types.Package, typeName, method string) *types.Func {
	t.Helper()
	obj := pkg.Scope().Lookup(typeName)
	if obj == nil {
		t.Fatalf("%s does not declare type %s", pkg.Path(), typeName)
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		t.Fatalf("%s is not a named type", typeName)
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == method {
			return m
		}
	}
	t.Fatalf("type %s has no method %s", typeName, method)
	return nil
}

func TestJoins(t *testing.T) {
	table, pkg := loadTable(t)
	for method, want := range map[string]bool{
		"loop":         true,
		"signal":       true,
		"viaDefer":     true,
		"viaPlainCall": false,
		"launches":     false,
		"ping":         true,
		"pong":         true,
	} {
		f := table.byObj[methodOf(t, pkg.Types, "worker", method)]
		if f == nil {
			t.Fatalf("no table entry for worker.%s", method)
		}
		if f.joins != want {
			t.Errorf("worker.%s joins = %v, want %v", method, f.joins, want)
		}
	}
}

// TestIntrinsics checks that sync.WaitGroup.Done, resolved purely through
// export data, counts as a join when deferred, and that no other
// export-data-only callee does.
func TestIntrinsics(t *testing.T) {
	_, pkg := loadTable(t)
	var syncPkg *types.Package
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == "sync" {
			syncPkg = imp
		}
	}
	if syncPkg == nil {
		t.Fatal("fixture does not import sync")
	}
	if !isWaitGroupDone(methodOf(t, syncPkg, "WaitGroup", "Done")) {
		t.Error("sync.WaitGroup.Done is not an intrinsic join")
	}
	for _, m := range []string{"Add", "Wait"} {
		if isWaitGroupDone(methodOf(t, syncPkg, "WaitGroup", m)) {
			t.Errorf("sync.WaitGroup.%s counts as a join", m)
		}
	}
}
