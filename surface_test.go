package mv2j_test

import (
	"bufio"
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

// surfaceAllowList names the exported functions and methods that keep
// no non-test caller on purpose, one per line with the reason.
const surfaceAllowList = "testdata/surface_allow.txt"

// exportedFunc is one exported function or method declared in non-test
// code under internal/, named "<dir>.<Name>" or "<dir>.<Recv>.<Name>".
type exportedFunc struct {
	key, name string
	pos       token.Position
}

// scanSurface parses every non-test Go file in the repository, the
// benchmark module included. It returns the exported functions and
// methods declared under internal/ and the set of identifiers used
// anywhere other than as a function's own declared name.
func scanSurface(t *testing.T) ([]exportedFunc, map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	var decls []exportedFunc
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == filepath.Join("benchmark", "out")) {
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
		declNames := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fn.Name] = true
			if !fn.Name.IsExported() || !strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
				continue
			}
			key := filepath.ToSlash(filepath.Dir(path)) + "."
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				key += recvTypeName(fn.Recv.List[0].Type) + "."
			}
			decls = append(decls, exportedFunc{key: key + fn.Name.Name, name: fn.Name.Name, pos: fset.Position(fn.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, used
}

// recvTypeName returns the base type name of a method receiver.
func recvTypeName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// readSurfaceAllowList returns the allow-listed keys. Every entry must
// give a reason after the key.
func readSurfaceAllowList(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open(surfaceAllowList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s gives no reason", surfaceAllowList, line, key)
		}
		allow[key] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// TestExportedSurfaceHasCallers fails when an exported function or
// method in non-test internal/ code is named by no non-test Go code in
// the repository, unless the allow-list names it with a reason. The
// match is by name, so a name that any non-test code uses anywhere
// counts as reached. An allow-list entry that no longer names such a
// symbol fails too, so the list only shrinks.
func TestExportedSurfaceHasCallers(t *testing.T) {
	decls, used := scanSurface(t)
	allow := readSurfaceAllowList(t)
	unreached := map[string]bool{}
	var missing []string
	for _, d := range decls {
		if used[d.name] {
			continue
		}
		unreached[d.key] = true
		if !allow[d.key] {
			missing = append(missing, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no non-test caller: use it, move it into an export_test.go, delete it, or allow-list it in %s with a reason", m, surfaceAllowList)
	}
	var stale []string
	for key := range allow {
		if !unreached[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("%s: %s names no unreached exported function; remove the entry", surfaceAllowList, key)
	}
}
