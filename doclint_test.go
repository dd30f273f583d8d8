// Documentation lint: every package in the module must carry a
// package-level doc comment, and every exported symbol of the public vxml
// package must be documented. This is the enforcement half of the
// documentation set (README.md, docs/) — godoc coverage cannot silently
// rot once it is a test.
package vxml

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// modulePackageDirs returns the module's non-test package directories:
// the root, cmd/*, examples/* and internal/*.
func modulePackageDirs(t *testing.T) []string {
	t.Helper()
	dirs := []string{"."}
	for _, glob := range []string{"cmd/*", "examples/*", "internal/*"} {
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			if fi, err := os.Stat(m); err == nil && fi.IsDir() {
				dirs = append(dirs, m)
			}
		}
	}
	return dirs
}

func parseDir(t *testing.T, dir string) map[string]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		files[path] = f
	}
	return files
}

// TestEveryPackageHasDocComment asserts each package directory contains at
// least one file with a doc comment on its package clause.
func TestEveryPackageHasDocComment(t *testing.T) {
	for _, dir := range modulePackageDirs(t) {
		files := parseDir(t, dir)
		if len(files) == 0 {
			continue
		}
		documented := false
		for _, f := range files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			t.Errorf("package directory %s has no package-level doc comment", dir)
		}
	}
}

// symbolDocDirs are the package directories whose exported symbols must
// all carry doc comments: the public root package, plus the internal
// packages whose surfaces back the documentation set — the paper's
// figure harness and the load harness (docs/BENCHMARKS.md describes both,
// and the vxmlload/1 report schema), the view catalog
// (docs/ARCHITECTURE.md's "Catalog and query planning"), the scoring
// module and the document store (both central to docs/ARCHITECTURE.md
// and docs/TUNING.md).
var symbolDocDirs = []string{".", "internal/benchkit", "internal/catalog", "internal/diskstore", "internal/loadkit", "internal/scoring", "internal/store"}

// TestPublicAPIExportedSymbolsDocumented asserts every exported top-level
// declaration of the root vxml package — and of the internal packages the
// documentation set leans on — carries a doc comment.
func TestPublicAPIExportedSymbolsDocumented(t *testing.T) {
	for _, dir := range symbolDocDirs {
		checkExportedSymbolDocs(t, dir)
	}
}

// checkExportedSymbolDocs reports every undocumented exported top-level
// declaration in one package directory.
func checkExportedSymbolDocs(t *testing.T, dir string) {
	t.Helper()
	for path, f := range parseDir(t, dir) {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					t.Errorf("%s: exported %s %s lacks a doc comment", path, kindOf(d), d.Name.Name)
				}
			case *ast.GenDecl:
				// A doc comment on the grouped decl covers its specs
				// (idiomatic for const blocks).
				if d.Doc != nil {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
							t.Errorf("%s: exported type %s lacks a doc comment", path, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() && s.Doc == nil && s.Comment == nil {
								t.Errorf("%s: exported value %s lacks a doc comment", path, n.Name)
							}
						}
					}
				}
			}
		}
	}
}

func kindOf(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}
