package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestServingReachesItsPackages: every function of a repro/internal package
// that cmd/ruidd or cmd/xq links is reached by one of them, or is listed in
// testdata/unreached.txt ("symbol reason" lines, # comments) with a reason.
// Reachability is the linker's own: both binaries are built with inlining
// off and -dumpdep, which prints every edge of the linker's dead-code walk.
// A listed function that is reached, or no longer exists, fails too.
func TestServingReachesItsPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("builds both serving binaries")
	}
	root := filepath.Join("..", "..")
	run := func(args ...string) string {
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	reached := map[string]bool{}
	for _, bin := range []string{"./cmd/ruidd", "./cmd/xq"} {
		out := run("build", "-o", filepath.Join(t.TempDir(), "bin"), "-gcflags=all=-l", "-ldflags=-dumpdep", bin)
		for _, line := range strings.Split(out, "\n") {
			if from, to, ok := strings.Cut(line, " -> "); ok {
				reached[symbolName(from)] = true
				reached[symbolName(to)] = true
			}
		}
	}

	funcs := map[string]int{} // symbol -> lines, doc comment included
	total, unreached := 0, 0
	for _, line := range strings.Split(run("list", "-deps", "-f", "{{.ImportPath}} {{.Dir}}", "./cmd/ruidd", "./cmd/xq"), "\n") {
		if path, dir, _ := strings.Cut(line, " "); strings.HasPrefix(path, "repro/internal/") {
			packageFuncs(t, path, dir, funcs)
		}
	}
	data, err := os.ReadFile(filepath.Join("testdata", "unreached.txt"))
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("testdata/unreached.txt: %s has no reason", sym)
		}
		if _, ok := funcs[sym]; !ok {
			t.Errorf("testdata/unreached.txt: %s is no function of a serving package", sym)
		}
		allowed[sym] = true
	}

	syms := make([]string, 0, len(funcs))
	for sym := range funcs {
		syms = append(syms, sym)
	}
	sort.Strings(syms)
	for _, sym := range syms {
		total += funcs[sym]
		switch {
		case reached[sym] && allowed[sym]:
			t.Errorf("testdata/unreached.txt: %s is reached; take it off the list", sym)
		case !reached[sym]:
			unreached += funcs[sym]
			if !allowed[sym] {
				t.Errorf("%s (%d lines) is reached by neither cmd/ruidd nor cmd/xq: use it, move it out of the serving packages, or list it in testdata/unreached.txt with a reason", sym, funcs[sym])
			}
		}
	}
	t.Logf("serving packages: %d function lines, %d unreached by cmd/ruidd and cmd/xq", total, unreached)
}

var closureSuffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap)\d+)+$`)

// symbolName reduces a linker symbol to the form packageFuncs gives a
// declaration: instantiation brackets and closure suffixes go, so a generic
// function, or one whose closure is reached, counts as reached.
func symbolName(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range strings.TrimSpace(s) {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return closureSuffix.ReplaceAllString(b.String(), "")
}

// packageFuncs adds the linker symbol and line count of every function and
// method declared in the non-test files of one package to funcs. A method
// is pkg.(*T).M for a pointer receiver, pkg.T.M for a value one.
func packageFuncs(t *testing.T, path, dir string, funcs map[string]int) {
	t.Helper()
	fset := token.NewFileSet()
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			sym := path + "." + fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				star, isPtr := recv.(*ast.StarExpr)
				if isPtr {
					recv = star.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				} else if ix, ok := recv.(*ast.IndexListExpr); ok {
					recv = ix.X
				}
				name := recv.(*ast.Ident).Name
				if isPtr {
					name = "(*" + name + ")"
				}
				sym = path + "." + name + "." + fn.Name.Name
			}
			start := fn.Pos()
			if fn.Doc != nil {
				start = fn.Doc.Pos()
			}
			funcs[sym] = fset.Position(fn.End()).Line - fset.Position(start).Line + 1
		}
	}
}
