package repro

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateUnreferenced = flag.Bool("update-unreferenced", false, "rewrite testdata/unreferenced.golden from this tree")

// interfaceMethods implement standard-library interfaces (errors.Unwrap,
// sort.Interface), which call them without naming them in this repo.
var interfaceMethods = map[string]bool{"Unwrap": true, "Less": true, "Swap": true}

// unreferencedFuncs lists, as "dir: Recv.Name", every function declared in
// non-test Go source outside bench/ledger whose name no non-test identifier
// anywhere in the tree mentions (bench/ledger counts as a caller). The scan is
// name-based, so a hit is a candidate for deletion, not a verdict: a name a
// test calls, or one that only an unrelated declaration shares, reads as
// unreferenced or referenced accordingly.
func unreferencedFuncs(t *testing.T) []string {
	t.Helper()
	type decl struct{ dir, name, recv string }
	var decls []decl
	mentions := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, dcl := range f.Decls {
			fn, ok := dcl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if strings.HasPrefix(path, filepath.Join("bench", "ledger")) {
				continue
			}
			recv := ""
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				switch idx := typ.(type) {
				case *ast.IndexExpr:
					typ = idx.X
				case *ast.IndexListExpr:
					typ = idx.X
				}
				recv = typ.(*ast.Ident).Name + "."
			}
			decls = append(decls, decl{filepath.Dir(path), fn.Name.Name, recv})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				mentions[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range decls {
		if mentions[d.name] > 0 || d.name == "main" || d.name == "init" || (d.recv != "" && interfaceMethods[d.name]) {
			continue
		}
		out = append(out, filepath.ToSlash(d.dir)+": "+d.recv+d.name)
	}
	sort.Strings(out)
	return out
}

// TestUnreferencedFuncsOnlyShrink compares the scan with
// testdata/unreferenced.golden: a function that loses its last caller fails
// here until it is deleted or listed, and a listed one that gains a caller or
// goes fails until the list is rewritten (-update-unreferenced), so the list
// moves only on purpose.
func TestUnreferencedFuncsOnlyShrink(t *testing.T) {
	got := strings.Join(unreferencedFuncs(t), "\n") + "\n"
	const path = "testdata/unreferenced.golden"
	if *updateUnreferenced {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("unreferenced functions changed (-update-unreferenced rewrites the list, for an intended change only):\ngot:\n%swant:\n%s", got, want)
	}
}
