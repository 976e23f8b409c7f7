package faultinject

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestSiteCensus holds the repository's fault sites and its tests to
// each other, read with go/parser from every Go file under the root
// (the main module and bench/):
//
//   - every site a non-test file hooks (Fire, TruncateBy)
//     is armed by at least one test, so no failure path ships untested;
//   - every site a test arms is hooked in non-test code, or by the same
//     test file (a test that plays the product side itself), so a
//     renamed site cannot leave a test that injects nothing.
func TestSiteCensus(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	hooked := map[string][]string{} // site → non-test files that hook it
	armed := map[string]string{}    // "file\tsite" a test file arms → site
	selfHooked := map[string]bool{} // "file\tsite" a test file hooks itself
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".go" {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		isTest := strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				name := selected(n.Fun, f.Name.Name)
				if (name != "Fire" && name != "TruncateBy") || len(n.Args) == 0 {
					return true
				}
				site, ok := stringLit(n.Args[0])
				switch {
				case isTest:
					selfHooked[rel+"\t"+site] = true
				case !ok:
					t.Errorf("%s: %s's site is not a string literal", fset.Position(n.Pos()), name)
				default:
					hooked[site] = append(hooked[site], rel)
				}
			case *ast.CompositeLit:
				if !isTest || selected(n.Type, f.Name.Name) != "Fault" {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Site" {
						continue
					}
					site, ok := stringLit(kv.Value)
					if !ok {
						t.Errorf("%s: armed site is not a string literal", fset.Position(kv.Pos()))
					}
					armed[rel+"\t"+site] = site
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	armedSites := map[string]bool{}
	for _, key := range sortedKeys(armed) {
		site := armed[key]
		armedSites[site] = true
		if hooked[site] == nil && !selfHooked[key] {
			t.Errorf("%s arms site %q, which no product code hooks", strings.Split(key, "\t")[0], site)
		}
	}
	if len(hooked) == 0 || len(armedSites) == 0 {
		t.Fatalf("census found %d product sites and %d armed sites", len(hooked), len(armedSites))
	}
	for _, site := range sortedKeys(hooked) {
		if !armedSites[site] {
			t.Errorf("site %q (%s) is armed by no test", site, strings.Join(hooked[site], ", "))
		}
	}
}

// selected is the name e selects from this package: faultinject.Name
// anywhere, or a bare Name inside the package itself.
func selected(e ast.Expr, pkg string) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && x.Name == "faultinject" {
			return e.Sel.Name
		}
	case *ast.Ident:
		if pkg == "faultinject" {
			return e.Name
		}
	}
	return ""
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
