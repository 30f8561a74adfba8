// Package treecheck holds no program code, only tests that read the whole
// tree. They type-check the module's non-test Go files together with the
// benchmark harness in bench/ (its own module, which names the service API
// it drives) and hold four rules:
//
//   - every exported identifier under internal/ is named by some non-test
//     code, or is a test oracle or test seam listed with its reason in
//     testdata/allowlist.txt; a method counts as named through an
//     interface only if some non-test code converts its type to one;
//   - every struct field declared outside bench/ is read by some non-test
//     code (a write, an increment or a composite-literal key is not a
//     read), or is a test oracle or seam listed under [fields] in the same
//     allowlist: a field nothing reads is state no result depends on;
//   - every exported field of a struct type under internal/ (embedded
//     and json-tagged fields aside) is set by some non-test code outside
//     its type's defaults method, outside a fill-in (if c.X == 0 {
//     c.X = … }) and other than as a constant a Default… function writes:
//     a value every program leaves alone is a constant, and one only tests
//     set is an unexported field;
//   - every Go identifier and command flag that README.md, DESIGN.md and
//     EXPERIMENTS.md write in backticks exists.
//
// The standard library comes from the toolchain's export data
// (importer.Default), so the check needs nothing from the network.
package treecheck

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const modulePath = "repro"

// pkg is one directory of the tree: its non-test files type-checked, its
// test files only parsed (the doc check resolves test names in them).
type pkg struct {
	path      string // import path
	dir       string
	goFiles   []string
	testFiles []string

	files []*ast.File
	types *types.Package
	info  *types.Info
	// testNames holds the top-level names its _test.go files declare, with
	// methods as "Type.Method"; testImports the paths they import.
	testNames   map[string]bool
	testImports []string
}

// index is the type-checked tree.
type index struct {
	fset *token.FileSet
	root string
	pkgs map[string]*pkg // by import path
	std  types.Importer
}

var (
	loadOnce  sync.Once
	loaded    *index
	loadError error
)

// load builds the index once per test binary.
func load(t *testing.T) *index {
	t.Helper()
	loadOnce.Do(func() { loaded, loadError = newIndex() })
	if loadError != nil {
		t.Fatal(loadError)
	}
	return loaded
}

func newIndex() (*index, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	x := &index{
		fset: token.NewFileSet(),
		root: root,
		pkgs: map[string]*pkg{},
	}
	x.std = importer.Default()
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		path := modulePath
		if rel != "." {
			// bench/ is module repro/bench, so one rule names every package.
			path += "/" + filepath.ToSlash(rel)
		}
		x.pkgs[path] = &pkg{
			path:      path,
			dir:       dir,
			goFiles:   bp.GoFiles,
			testFiles: append(append([]string(nil), bp.TestGoFiles...), bp.XTestGoFiles...),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, path := range x.paths() {
		p := x.pkgs[path]
		// A test-only package, such as this one, has nothing to check.
		if len(p.goFiles) > 0 {
			if _, err := x.check(p); err != nil {
				return nil, err
			}
		}
		if err := x.parseTests(p); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// paths lists the import paths in sorted order.
func (x *index) paths() []string {
	out := make([]string, 0, len(x.pkgs))
	for path := range x.pkgs {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

// Import serves the tree's packages type-checked from source and the
// standard library from export data.
func (x *index) Import(path string) (*types.Package, error) {
	if p := x.pkgs[path]; p != nil {
		return x.check(p)
	}
	return x.std.Import(path)
}

func (x *index) check(p *pkg) (*types.Package, error) {
	if p.types != nil {
		return p.types, nil
	}
	for _, name := range p.goFiles {
		f, err := parser.ParseFile(x.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: x}
	tp, err := conf.Check(p.path, x.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", p.path, err)
	}
	p.types = tp
	return tp, nil
}

func (x *index) parseTests(p *pkg) error {
	p.testNames = map[string]bool{}
	for _, name := range p.testFiles {
		f, err := parser.ParseFile(x.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			p.testImports = append(p.testImports, path)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					p.testNames[recvName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				} else {
					p.testNames[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						p.testNames[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							p.testNames[n.Name] = true
						}
					}
				}
			}
		}
	}
	return nil
}

// recvName is the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// rel is an import path relative to the tree's internal/ directory, the
// form the allowlist and the failure messages use.
func rel(path string) string {
	return strings.TrimPrefix(path, modulePath+"/internal/")
}

// packages returns every type-checked package in the tree, in path order.
func (x *index) packages() []*pkg {
	var out []*pkg
	for _, path := range x.paths() {
		if p := x.pkgs[path]; p.types != nil {
			out = append(out, p)
		}
	}
	return out
}

// readFile reads a file relative to the tree's root.
func (x *index) readFile(name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(x.root, name))
	return string(b), err
}
