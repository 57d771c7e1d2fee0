package lds

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestProtocolFilesStayPure: the files holding the machines import nothing
// that locks, waits, keeps time or reaches a network, and declare no
// channel. runtime.go, the one adaptor, is the only exception.
func TestProtocolFilesStayPure(t *testing.T) {
	banned := []string{"sync", "context", "time", "github.com/lds-storage/lds/internal/transport"}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "runtime.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			for _, b := range banned {
				if path == b || strings.HasPrefix(path, b+"/") {
					t.Errorf("%s imports %q; only runtime.go may", name, path)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if ch, ok := n.(*ast.ChanType); ok {
				t.Errorf("%s declares a channel at %v; only runtime.go may", name, fset.Position(ch.Pos()))
			}
			return true
		})
	}
}
