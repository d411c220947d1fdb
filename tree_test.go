package repro

// Whole-tree checks: properties of the source tree itself rather than of
// the running system — lists that must name every target, and surfaces
// that were removed and must stay removed.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// walkGoFiles calls fn for every .go file of the module, skipping the
// separate benchmark module and the directories the go tool ignores.
func walkGoFiles(t *testing.T, fn func(path string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "benchmark" && filepath.Dir(path) == "." ||
				name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			fn(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fuzzListing matches one fuzz invocation, `test ./pkg -run xxx -fuzz
// '^FuzzName$'` (the Makefile doubles the $).
var fuzzListing = regexp.MustCompile(`test (\./\S+) -run xxx -fuzz '\^(Fuzz\w+)\$\$?'`)

// section returns the lines of text from the first line with prefix
// start up to (not including) the next line for which end reports true.
func section(t *testing.T, file, start string, end func(line string) bool) string {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	in := false
	for _, line := range strings.Split(string(b), "\n") {
		if !in {
			in = strings.HasPrefix(strings.TrimSpace(line), start)
			continue
		}
		if end(line) {
			break
		}
		out = append(out, line)
	}
	if !in {
		t.Fatalf("%s: no %q section", file, start)
	}
	return strings.Join(out, "\n")
}

// TestFuzzTargetsListed: every `func Fuzz*` target in the module is run
// by the Makefile's fuzz target and by CI's fuzz step, and neither lists
// a target that no longer exists.
func TestFuzzTargetsListed(t *testing.T) {
	want := map[string]bool{}
	walkGoFiles(t, func(path string) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
				want["./"+filepath.ToSlash(filepath.Dir(path))+" "+fd.Name.Name] = true
			}
		}
	})
	if len(want) == 0 {
		t.Fatal("found no fuzz targets")
	}
	lists := map[string]string{
		"Makefile fuzz target": section(t, "Makefile", "fuzz:", func(l string) bool {
			return !strings.HasPrefix(l, "\t")
		}),
		"ci.yml fuzz step": section(t, filepath.Join(".github", "workflows", "ci.yml"), "- name: Fuzz", func(l string) bool {
			return strings.HasPrefix(strings.TrimSpace(l), "- name:")
		}),
	}
	for where, text := range lists {
		got := map[string]bool{}
		for _, m := range fuzzListing.FindAllStringSubmatch(text, -1) {
			got[m[1]+" "+m[2]] = true
		}
		var missing, stale []string
		for k := range want {
			if !got[k] {
				missing = append(missing, k)
			}
		}
		for k := range got {
			if !want[k] {
				stale = append(stale, k)
			}
		}
		sort.Strings(missing)
		sort.Strings(stale)
		if len(missing) > 0 {
			t.Errorf("%s does not run %d fuzz target(s): %v", where, len(missing), missing)
		}
		if len(stale) > 0 {
			t.Errorf("%s runs fuzz target(s) that do not exist: %v", where, stale)
		}
	}
}

// TestNoHedgingSurface pins the removal of hedged requests (request
// cloning to alternate queues): no non-test source outside the benchmark
// module declares or uses an identifier containing "hedge", or names a
// clerk.hedge* metric.
func TestNoHedgingSurface(t *testing.T) {
	walkGoFiles(t, func(path string) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if strings.Contains(strings.ToLower(x.Name), "hedge") {
					t.Errorf("%s: identifier %s", fset.Position(x.Pos()), x.Name)
				}
			case *ast.BasicLit:
				if x.Kind == token.STRING {
					if s, err := strconv.Unquote(x.Value); err == nil && strings.HasPrefix(s, "clerk.hedge") {
						t.Errorf("%s: metric name %q", fset.Position(x.Pos()), s)
					}
				}
			}
			return true
		})
	})
}
