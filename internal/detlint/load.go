package detlint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, type-checked package unit. Units with
// in-package test files are loaded as their test-augmented variant, so
// _test.go files are analyzed alongside the code they exercise.
type Package struct {
	PkgPath   string // bracket-free import path, e.g. repro/internal/netem
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	// TypeErrors collects type-checker complaints. Analysis proceeds on
	// a partially typed AST, but the driver surfaces these loudly: a
	// finding-free run over a package that did not type-check proves
	// nothing.
	TypeErrors []error
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	ForTest    string
	Standard   bool
	Export     string
	Module     *struct {
		Path string
		Main bool
	}
}

// Load lists, parses and type-checks the module packages matching
// patterns (plus their test variants), resolving imports from the
// toolchain's export data so no network or external dependency is
// needed. dir is the directory to run `go list` from ("" = cwd).
func Load(dir string, patterns ...string) ([]*Package, error) {
	entries, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}

	// Export data for every dependency, keyed by the exact ImportPath
	// go list reported (test-augmented variants keep their brackets).
	exports := make(map[string]string)
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}

	// Select the units to analyze: module packages only, preferring the
	// package's own test-augmented variant (ForTest is the package
	// itself) so its test files are covered, and skipping the
	// synthesized test mains (their sources live in the build cache, not
	// the tree). Variants recompiled for another package's tests
	// ("p [q.test]") carry only p's non-test files and never win.
	selected := make(map[string]listPkg)
	for _, e := range entries {
		if e.Module == nil || !e.Module.Main || e.Standard {
			continue
		}
		if strings.HasSuffix(e.ImportPath, ".test") {
			continue
		}
		key := strippedPath(e.ImportPath)
		if _, ok := selected[key]; !ok || e.ForTest == key {
			selected[key] = e
		}
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, e := range sortedValues(selected) {
		pkg, err := typecheckUnit(fset, e, exports)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", e.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func goList(dir string, patterns ...string) ([]listPkg, error) {
	args := []string{
		"list", "-export", "-deps", "-test",
		"-json=ImportPath,Name,Dir,GoFiles,Imports,ImportMap,ForTest,Standard,Export,Module",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var entries []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listPkg
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// strippedPath removes the " [pkg.test]" variant suffix.
func strippedPath(importPath string) string {
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

func sortedValues(m map[string]listPkg) []listPkg {
	// Deterministic load order: analyzers and diagnostics must not
	// depend on map iteration (detlint practices what it preaches).
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]listPkg, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

func typecheckUnit(fset *token.FileSet, e listPkg, exports map[string]string) (*Package, error) {
	var files []*ast.File
	for _, name := range e.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(e.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	pkg := &Package{PkgPath: strippedPath(e.ImportPath), Fset: fset, Files: files}

	// A fresh gc importer per unit: the same plain import path can
	// resolve to different compiled variants depending on the unit's
	// ImportMap (external test packages import the test-augmented
	// package under the plain path).
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := e.ImportMap[path]; ok {
			path = mapped
		}
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg.TypesInfo = info
	// Check returns an error on the first problem but still produces a
	// usable (partial) package; per-error detail lands in TypeErrors.
	tpkg, _ := conf.Check(pkg.PkgPath, fset, files, info)
	pkg.Types = tpkg
	return pkg, nil
}
