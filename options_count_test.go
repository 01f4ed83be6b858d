package lapcc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// optionsFieldCount is the number of settable options the module exposes.
// A change that adds or removes an option changes it in the same diff.
const optionsFieldCount = 83

// TestOptionsFieldCount counts the settable options: the exported fields of
// every non-test struct type whose name ends in Options, outside bench/ (its
// own module), plus the fields of the run value runenv.Env. An embedded
// field counts once, and type aliases (sparsify.Options = runenv.Env) are
// skipped.
func TestOptionsFieldCount(t *testing.T) {
	fset := token.NewFileSet()
	total := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
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
		runEnv := filepath.ToSlash(filepath.Dir(path)) == "internal/runenv"
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Assign.IsValid() {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !(strings.HasSuffix(ts.Name.Name, "Options") || runEnv && ts.Name.Name == "Env") {
				return true
			}
			for _, field := range st.Fields.List {
				if len(field.Names) == 0 {
					total++
				}
				for _, name := range field.Names {
					if name.IsExported() {
						total++
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != optionsFieldCount {
		t.Fatalf("the module exposes %d options, optionsFieldCount says %d: update the constant with the change that moved it", total, optionsFieldCount)
	}
}
