// Command doclint is the documentation gate CI runs alongside go vet:
// it enforces that the core packages keep a complete godoc surface and
// that the operations runbook stays in sync with the binaries it
// documents.
//
// Two checks:
//
//  1. Doc-comment lint: every exported top-level symbol (and the
//     package clause itself) in the core packages — internal/fleet,
//     internal/service, internal/obs, internal/admit — must carry a doc
//     comment. go vet does not enforce this; the repo treats a bare
//     exported symbol as a build defect.
//  2. Docs freshness: every CLI flag declared by cmd/paotrserve and
//     cmd/paotrload and every HTTP route paotrserve registers must be
//     mentioned in docs/OPERATIONS.md. Adding a flag or endpoint
//     without documenting how to operate it fails the build. In reverse,
//     every flag-table row (a line starting "| `-name`") must name a flag
//     one of the two commands still declares, so deleting a flag without
//     its row fails too.
//
// Usage:
//
//	doclint [-root <repo root>]
//
// Exits nonzero listing every violation.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// docPackages are the packages whose exported API must be fully
// documented.
var docPackages = []string{
	"internal/fleet",
	"internal/service",
	"internal/obs",
	"internal/admit",
}

// flagDirs are the commands whose flags the runbook must cover.
var flagDirs = []string{"cmd/paotrserve", "cmd/paotrload"}

// routeDir is the command whose HTTP routes the runbook must cover.
const routeDir = "cmd/paotrserve"

// runbook is the operations document the freshness check targets.
const runbook = "docs/OPERATIONS.md"

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	violations, err := run(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		os.Exit(2)
	}
	for _, v := range violations {
		fmt.Println(v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("doclint: ok")
}

// run executes both checks under root and returns every violation.
func run(root string) ([]string, error) {
	var out []string
	for _, pkg := range docPackages {
		vs, err := lintPackage(filepath.Join(root, pkg), pkg)
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	fresh, err := checkFreshness(root)
	if err != nil {
		return nil, err
	}
	return append(out, fresh...), nil
}

// lintPackage parses one package directory (tests excluded) and reports
// every exported top-level symbol without a doc comment, plus a missing
// package doc.
func lintPackage(dir, label string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		files := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			files = append(files, name)
		}
		sort.Strings(files)
		for _, name := range files {
			f := pkg.Files[name]
			if f.Doc != nil {
				hasPkgDoc = true
			}
			out = append(out, lintFile(fset, f)...)
		}
		if !hasPkgDoc {
			out = append(out, fmt.Sprintf("%s: package %s has no package doc comment", label, pkg.Name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// lintFile reports undocumented exported declarations in one file.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			kind, name := "function", d.Name.Name
			if d.Recv != nil {
				recv := receiverName(d.Recv)
				if recv != "" && !ast.IsExported(recv) {
					continue // method on an unexported type: not API surface
				}
				kind, name = "method", recv+"."+d.Name.Name
			}
			report(d.Pos(), kind, name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						// A documented const/var block covers its members;
						// an inline or trailing comment also counts.
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(n.Pos(), "value", n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName extracts the bare type name of a method receiver.
func receiverName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// checkFreshness asserts every flag of flagDirs and every route of
// routeDir appears in the runbook, and every flag row of the runbook
// names a flag of flagDirs.
func checkFreshness(root string) ([]string, error) {
	docBytes, err := os.ReadFile(filepath.Join(root, runbook))
	if err != nil {
		return nil, fmt.Errorf("%s: %w (the freshness check needs the runbook)", runbook, err)
	}
	doc := string(docBytes)
	var out []string
	declared := map[string]bool{}
	for _, dir := range flagDirs {
		flags, err := collectFlags(filepath.Join(root, dir))
		if err != nil {
			return nil, err
		}
		for _, fl := range flags {
			declared[fl] = true
			if !strings.Contains(doc, "-"+fl) {
				out = append(out, fmt.Sprintf("%s: flag -%s is not documented in %s", dir, fl, runbook))
			}
		}
	}
	for _, line := range strings.Split(doc, "\n") {
		row, ok := strings.CutPrefix(line, "| `-")
		if !ok {
			continue
		}
		if name, _, ok := strings.Cut(row, "`"); ok && !declared[name] {
			out = append(out, fmt.Sprintf("%s: row for flag -%s, which no command in %v declares", runbook, name, flagDirs))
		}
	}
	routes, err := collectRoutes(filepath.Join(root, routeDir))
	if err != nil {
		return nil, err
	}
	for _, rt := range routes {
		if !strings.Contains(doc, rt) {
			out = append(out, fmt.Sprintf("%s: endpoint %s is not documented in %s", routeDir, rt, runbook))
		}
	}
	return out, nil
}

// collectFlags parses one command directory for flag.<Type>("name",...)
// declarations and returns the sorted flag names.
func collectFlags(dir string) ([]string, error) {
	seen := map[string]bool{}
	err := walkCalls(dir, func(call *ast.CallExpr) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
			return
		}
		switch sel.Sel.Name {
		case "String", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration",
			"StringVar", "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "Float64Var", "DurationVar":
		default:
			return
		}
		args := call.Args
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			args = args[1:] // (ptr, name, ...)
		}
		if len(args) > 0 {
			if name, ok := stringLit(args[0]); ok {
				seen[name] = true
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return sortedKeys(seen), nil
}

// collectRoutes parses one command directory for mux Handle/HandleFunc
// registrations with literal patterns and returns the sorted route
// paths, method stripped and wildcards trimmed ("GET /results/{id...}"
// -> "/results").
func collectRoutes(dir string) ([]string, error) {
	seen := map[string]bool{}
	err := walkCalls(dir, func(call *ast.CallExpr) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		if sel.Sel.Name != "HandleFunc" && sel.Sel.Name != "Handle" {
			return
		}
		pattern, ok := stringLit(call.Args[0])
		if !ok {
			return // computed pattern (e.g. the pprof profile loop)
		}
		if _, path, found := strings.Cut(pattern, " "); found {
			pattern = path
		}
		if i := strings.IndexByte(pattern, '{'); i >= 0 {
			pattern = pattern[:i]
		}
		pattern = strings.TrimRight(pattern, "/")
		if pattern != "" {
			seen[pattern] = true
		}
	})
	if err != nil {
		return nil, err
	}
	return sortedKeys(seen), nil
}

// walkCalls applies fn to every call expression in a directory's
// non-test sources.
func walkCalls(dir string, fn func(*ast.CallExpr)) error {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return err
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					fn(call)
				}
				return true
			})
		}
	}
	return nil
}

// stringLit unquotes a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
