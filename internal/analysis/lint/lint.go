// Package lint is a minimal, dependency-free analysis framework in the
// shape of golang.org/x/tools/go/analysis: an Analyzer inspects one
// type-checked package at a time through a Pass and reports Diagnostics.
//
// The repository cannot vendor x/tools, so this package reimplements the
// small slice of it the lds-lint suite needs: package loading (load.go,
// built on `go list -export` plus the standard gc export-data importer),
// the Analyzer/Pass contract, and an analysistest-style fixture runner
// (fixture.go) driven by `// want "regexp"` comments.
//
// Analyzers report per package, but a Pass carries the whole loaded
// package set (Pass.AllPkgs): an interprocedural analyzer (goexit) builds
// cross-package function summaries from it instead of stopping at call
// boundaries.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc states the invariant the analyzer enforces, the mechanical
	// rule it actually checks, and the known approximations.
	Doc string
	// Run inspects one package and reports violations via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// AllPkgs is the complete package set of this Run, in load order.
	// Function-local analyzers ignore it; an interprocedural one builds
	// its summaries over it, memoized once per Run.
	AllPkgs []*Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the conventional file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Stats records where a Run spent its time, for the lds-lint run
// summary: a per-analyzer cost regression is visible the day it lands
// instead of the month CI gets slow.
type Stats struct {
	// PerAnalyzer is the cumulative wall time each analyzer spent across
	// all packages (an interprocedural analyzer's first package also pays
	// for building its summary table).
	PerAnalyzer map[string]time.Duration
	// Order lists analyzer names in run order.
	Order []string
}

// Run applies every analyzer to every package and returns the combined
// diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunWithStats(pkgs, analyzers)
	return diags, err
}

// RunWithStats is Run plus per-analyzer timing.
func RunWithStats(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, *Stats, error) {
	var diags []Diagnostic
	stats := &Stats{PerAnalyzer: make(map[string]time.Duration, len(analyzers))}
	for _, a := range analyzers {
		stats.Order = append(stats.Order, a.Name)
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				AllPkgs:  pkgs,
				diags:    &diags,
			}
			start := time.Now()
			err := a.Run(pass)
			stats.PerAnalyzer[a.Name] += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sortDiags(diags)
	return diags, stats, nil
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// PathHasSuffix reports whether pkgPath ends with the given slash-separated
// suffix on a path-segment boundary ("a/internal/wire" matches suffix
// "internal/wire"; "a/myinternal/wire" does not). Analyzers use it to
// recognize this repository's packages both under their real module path
// and under the synthetic paths of test fixtures.
func PathHasSuffix(pkgPath, suffix string) bool {
	if pkgPath == suffix {
		return true
	}
	return strings.HasSuffix(pkgPath, "/"+suffix)
}

// CalleeOf resolves the object a call expression invokes, or nil for
// indirect calls through function values and built-ins.
func CalleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) { // an explicitly instantiated generic function
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// NamedType unwraps pointers and aliases and returns the *types.Named
// beneath t, or nil.
func NamedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// IsNamed reports whether t (possibly behind a pointer) is the named type
// `name` declared in a package whose path ends in pkgSuffix.
func IsNamed(t types.Type, pkgSuffix, name string) bool {
	named := NamedType(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return PathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}
