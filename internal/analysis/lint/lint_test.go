package lint

import (
	"strings"
	"testing"
)

// TestLoadRealPackage exercises the offline loader end to end: go list
// with export data, source parsing, and type-checking against compiler
// export files — the machinery both cmd/lds-lint and the fixture runner
// stand on.
func TestLoadRealPackage(t *testing.T) {
	pkgs, skips, err := Load(".", "github.com/lds-storage/lds/internal/wire")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(skips) != 0 {
		t.Fatalf("Load skipped %v, want none", skips)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load returned %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if !PathHasSuffix(pkg.Types.Path(), "internal/wire") {
		t.Fatalf("loaded package path %q, want suffix internal/wire", pkg.Types.Path())
	}
	for _, name := range []string{"DecodeAlias", "DecodeEnvelopeAlias"} {
		if pkg.Types.Scope().Lookup(name) == nil {
			t.Errorf("loaded wire package does not declare %s", name)
		}
	}
	if len(pkg.Files) == 0 || pkg.Info == nil {
		t.Fatalf("package loaded without syntax or type info")
	}
}

// TestRunReportsSortedDiagnostics checks the Pass plumbing and the
// stable output ordering with a trivial analyzer.
func TestRunReportsSortedDiagnostics(t *testing.T) {
	pkgs, _, err := Load(".", "github.com/lds-storage/lds/internal/analysis/lint")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	a := &Analyzer{
		Name: "filecount",
		Doc:  "reports every file, for plumbing tests",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				pass.Reportf(f.Pos(), "file in %s", pass.Pkg.Path())
			}
			return nil
		},
	}
	diags, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) == 0 {
		t.Fatalf("trivial analyzer reported nothing")
	}
	for i := 1; i < len(diags); i++ {
		if diags[i].Pos.Filename < diags[i-1].Pos.Filename {
			t.Errorf("diagnostics not sorted: %s after %s", diags[i].Pos.Filename, diags[i-1].Pos.Filename)
		}
	}
	if s := diags[0].String(); !strings.Contains(s, "filecount:") {
		t.Errorf("diagnostic format %q missing analyzer name", s)
	}
}

func TestPathHasSuffix(t *testing.T) {
	cases := []struct {
		path, suffix string
		want         bool
	}{
		{"github.com/lds-storage/lds/internal/wire", "internal/wire", true},
		{"internal/wire", "internal/wire", true},
		{"fix/internal/gateway", "internal/gateway", true},
		{"myinternal/wire", "internal/wire", false},
		{"internal/wirex", "internal/wire", false},
	}
	for _, c := range cases {
		if got := PathHasSuffix(c.path, c.suffix); got != c.want {
			t.Errorf("PathHasSuffix(%q, %q) = %v, want %v", c.path, c.suffix, got, c.want)
		}
	}
}
