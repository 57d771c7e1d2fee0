package dataflow

import (
	"go/types"
	"testing"

	"github.com/lds-storage/lds/internal/analysis/lint"
)

// loadTable builds the summary table over the fixture package set.
func loadTable(t *testing.T) (*Table, *lint.Package) {
	t.Helper()
	pkgs, err := lint.LoadFixture("testdata/src")
	if err != nil {
		t.Fatalf("LoadFixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture loaded %d packages, want 1", len(pkgs))
	}
	return For(&lint.Pass{AllPkgs: pkgs}), pkgs[0]
}

// sumOf resolves a fixture function or method ("name" or "Type.name")
// and returns its summary.
func sumOf(t *testing.T, table *Table, pkg *lint.Package, name string) *Summary {
	t.Helper()
	obj := pkg.Types.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("fixture does not declare %s", name)
	}
	s := table.Of(obj)
	if s == nil {
		t.Fatalf("no summary for %s", name)
	}
	return s
}

func methodSumOf(t *testing.T, table *Table, pkg *lint.Package, typeName, method string) *Summary {
	t.Helper()
	s := table.Of(methodOf(t, pkg.Types, typeName, method))
	if s == nil {
		t.Fatalf("no summary for %s.%s", typeName, method)
	}
	return s
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

func TestLeaseBits(t *testing.T) {
	table, pkg := loadTable(t)
	for fn, want := range map[string]bool{
		"durable":    true,
		"durableVia": true,
		"ping":       true,
		"pong":       true,
		"recurse":    false,
		"fenced":     false,
	} {
		if got := sumOf(t, table, pkg, fn).LeaseDurable; got != want {
			t.Errorf("%s LeaseDurable = %v, want %v", fn, got, want)
		}
	}
	for fn, want := range map[string]bool{
		"fenced":    true,
		"fencedVia": true,
		"unfenced":  false,
	} {
		if got := sumOf(t, table, pkg, fn).EpochFence; got != want {
			t.Errorf("%s EpochFence = %v, want %v", fn, got, want)
		}
	}
}

func TestJoins(t *testing.T) {
	table, pkg := loadTable(t)
	for method, want := range map[string]bool{
		"loop":         true,
		"signal":       true,
		"viaDefer":     true,
		"viaPlainCall": false,
		"launches":     false,
	} {
		if got := methodSumOf(t, table, pkg, "worker", method).Joins; got != want {
			t.Errorf("worker.%s Joins = %v, want %v", method, got, want)
		}
	}
}

// TestIntrinsics checks the axioms hold even for callees resolved purely
// through export data (the fixture imports the real catalog package).
func TestIntrinsics(t *testing.T) {
	table, pkg := loadTable(t)
	catalogPkg := findImport(t, pkg, "internal/catalog")
	if s := table.Of(methodOf(t, catalogPkg, "LeaseStore", "Release")); s == nil || !s.LeaseDurable {
		t.Errorf("catalog.LeaseStore.Release intrinsic: got %+v, want LeaseDurable", s)
	}
	if s := table.Of(methodOf(t, catalogPkg, "Lease", "Held")); s == nil || !s.EpochFence {
		t.Errorf("catalog.Lease.Held intrinsic: got %+v, want EpochFence", s)
	}
	if s := table.Of(methodOf(t, findImport(t, pkg, "sync"), "WaitGroup", "Done")); s == nil || !s.Joins {
		t.Errorf("sync.WaitGroup.Done intrinsic: got %+v, want Joins", s)
	}
}

func findImport(t *testing.T, pkg *lint.Package, suffix string) *types.Package {
	t.Helper()
	for _, imp := range pkg.Types.Imports() {
		if lint.PathHasSuffix(imp.Path(), suffix) {
			return imp
		}
	}
	t.Fatalf("fixture does not import %s", suffix)
	return nil
}
