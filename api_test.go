package pbs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const apiPath = "testdata/api.txt"

// TestExportedAPI pins the package's exported surface: every exported
// top-level name and every exported method of an exported type, one
// "kind name" line each, sorted. A change that adds or removes a name must
// regenerate testdata/api.txt (go test . -run TestExportedAPI
// -update-golden), which puts the surface change in the diff.
func TestExportedAPI(t *testing.T) {
	got := strings.Join(exportedAPI(t), "\n") + "\n"
	if *updateWireGolden {
		if err := os.WriteFile(apiPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for _, l := range gotLines {
			if !slices.Contains(wantLines, l) {
				t.Errorf("exported but not in %s: %s", apiPath, l)
			}
		}
		for _, l := range wantLines {
			if !slices.Contains(gotLines, l) {
				t.Errorf("in %s but not exported: %s", apiPath, l)
			}
		}
	}
}

// exportedAPI parses the package's non-test files and lists its exported
// surface.
func exportedAPI(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var lines []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					lines = append(lines, "func "+d.Name.Name)
				} else if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(recv) {
					lines = append(lines, "method "+recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							lines = append(lines, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								lines = append(lines, d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(lines)
	return lines
}

// receiverName is the type name of a method receiver, T or *T.
func receiverName(expr ast.Expr) string {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	if id, ok := expr.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
