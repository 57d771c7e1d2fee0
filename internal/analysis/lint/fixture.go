package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// TB is the slice of testing.TB the fixture runner needs. *testing.T
// satisfies it; the runner's own tests substitute a recorder so the
// runner's failure modes (unmatched want, unexpected diagnostic) are
// themselves testable.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// RunFixture is the analysistest-style driver: it loads every package
// under srcDir (each directory holding .go files is one package, its
// import path the directory's path relative to srcDir), type-checks them
// against the real repository's packages and the standard library (via
// export data), runs the analyzer, and compares the diagnostics against
// `// want "regexp"` comments in the fixture sources.
//
// A want comment expects one diagnostic on its own line per quoted
// regexp; lines without a want comment expect none. Fixture packages may
// import each other by their srcDir-relative paths and anything the real
// module can import by its usual path.
func RunFixture(t TB, a *Analyzer, srcDir string) {
	t.Helper()
	pkgs, err := LoadFixture(srcDir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", srcDir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s contains no packages", srcDir)
	}
	diags, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on fixture %s: %v", a.Name, srcDir, err)
	}
	wants := collectWants(t, pkgs)
	checkWants(t, diags, wants)
}

// want is one expectation parsed from a `// want` comment.
type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	raw     string
	matched bool
}

var wantArgRx = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

func collectWants(t TB, pkgs []*Package) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantArgRx.FindAllString(text, -1) {
						pat, err := strconv.Unquote(m)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, m, err)
						}
						rx, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, rx: rx, raw: pat})
					}
				}
			}
		}
	}
	return wants
}

func checkWants(t TB, diags []Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// LoadFixture type-checks the fixture tree under srcDir: each directory
// holding .go files is one package whose import path is its srcDir-
// relative path. Exported so summary tests (goexit's TestJoins) can build
// controlled call graphs without running the analyzer.
func LoadFixture(srcDir string) ([]*Package, error) {
	dirs, err := fixtureDirs(srcDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	type fixturePkg struct {
		dir   string
		files []*ast.File
		pkg   *Package
	}
	fixtures := make(map[string]*fixturePkg, len(dirs))
	var paths []string
	external := make(map[string]bool)
	for _, dir := range dirs {
		rel, err := filepath.Rel(srcDir, dir)
		if err != nil {
			return nil, err
		}
		path := filepath.ToSlash(rel)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		fp := &fixturePkg{dir: dir}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %w", e.Name(), err)
			}
			fp.files = append(fp.files, f)
		}
		if len(fp.files) == 0 {
			continue
		}
		fixtures[path] = fp
		paths = append(paths, path)
	}
	for _, fp := range fixtures {
		for _, f := range fp.files {
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if _, isFixture := fixtures[p]; !isFixture {
					external[p] = true
				}
			}
		}
	}

	// Resolve every non-fixture import (stdlib and real repo packages)
	// through export data produced by one `go list -export` run, executed
	// in the analyzer package's directory — any directory inside the
	// module works.
	var extImp types.Importer
	if len(external) > 0 {
		patterns := make([]string, 0, len(external))
		for p := range external {
			patterns = append(patterns, p)
		}
		sort.Strings(patterns)
		byPath, _, err := goList(".", patterns)
		if err != nil {
			return nil, err
		}
		extImp = exportImporter(fset, byPath)
	}

	checking := make(map[string]bool)
	var ensure func(path string) (*types.Package, error)
	ensure = func(path string) (*types.Package, error) {
		fp, ok := fixtures[path]
		if !ok {
			if extImp == nil {
				return nil, fmt.Errorf("fixture import %q not found", path)
			}
			return extImp.Import(path)
		}
		if fp.pkg != nil {
			return fp.pkg.Types, nil
		}
		if checking[path] {
			return nil, fmt.Errorf("fixture import cycle through %q", path)
		}
		checking[path] = true
		defer delete(checking, path)
		info := newInfo()
		conf := types.Config{Importer: importerFunc(ensure)}
		tpkg, err := conf.Check(path, fset, fp.files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck fixture %s: %w", path, err)
		}
		fp.pkg = &Package{PkgPath: path, Fset: fset, Files: fp.files, Types: tpkg, Info: info}
		return tpkg, nil
	}

	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		if _, err := ensure(path); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, fixtures[path].pkg)
	}
	return pkgs, nil
}

// fixtureDirs returns every directory under root, root included.
func fixtureDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
