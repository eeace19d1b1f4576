// Package load turns Go packages into type-checked syntax trees for the
// lint suite, using only the standard library and the go tool. It is the
// offline analogue of golang.org/x/tools/go/packages: `go list -export
// -deps -json` supplies file lists and compiled export data for every
// dependency, target packages are parsed from source (the analyzers need
// positions and comments), and go/types checks them against the export
// data through go/importer's lookup hook. The module vendors no external
// code, so the lint suite cannot depend on x/tools; this loader is what
// makes a repo-specific analysis suite possible anyway.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one type-checked target package: everything an analyzer pass
// needs.
type Package struct {
	// Path is the import path the package was checked under. Analyzers use
	// it to scope rules to determinism-critical parts of the module.
	Path string
	// Dir is the directory holding the package's source files.
	Dir string
	// Imports lists the package's direct imports — the edges drivers
	// topologically sort by so facts of dependencies exist before any
	// dependent is analyzed.
	Imports []string
	// DepOnly marks a module-internal dependency loaded only so analyzers
	// can compute its facts: drivers run analyzers over it but report no
	// diagnostics from it (it was not asked for).
	DepOnly bool

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors collects type-checking problems. A package that does not
	// compile cannot be trusted to lint cleanly; drivers surface these.
	TypeErrors []error
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	DepOnly    bool
}

// Packages loads every package matching the patterns (as `go list`
// interprets them, e.g. "./..." or "nochatter/internal/..."), type-checked
// from source with dependencies imported from compiled export data.
// Module-internal dependencies of the matched packages are loaded from
// source too, marked DepOnly: the facts engine needs their function bodies
// (export data has types, not syntax), but findings in them belong to runs
// that name them.
func Packages(patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Imports,Export,DepOnly"}, patterns...)
	entries, err := runGoList(args)
	if err != nil {
		return nil, err
	}
	mod, err := ModulePath()
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var targets []listEntry
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		inModule := e.ImportPath == mod || strings.HasPrefix(e.ImportPath, mod+"/")
		if !e.DepOnly || inModule {
			targets = append(targets, e)
		}
	}
	pkgs := make([]*Package, 0, len(targets))
	for _, e := range targets {
		fset := token.NewFileSet()
		files := make([]*ast.File, 0, len(e.GoFiles))
		for _, name := range e.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(e.Dir, name), nil, parseMode)
			if err != nil {
				return nil, fmt.Errorf("load %s: %w", e.ImportPath, err)
			}
			files = append(files, f)
		}
		pkg := check(e.ImportPath, e.Dir, fset, files, exports, nil)
		pkg.Imports = e.Imports
		pkg.DepOnly = e.DepOnly
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Tree loads packages that may import each other from source: a
// GOPATH-shaped root (<root>/<importpath>/*.go, such as an analyzer's
// testdata/src) where an import resolving to a directory under the root
// is type-checked recursively from source, and everything else comes from
// compiled export data, as in Packages. All packages in one tree share a
// FileSet, so positions stay comparable across them.
type Tree struct {
	root string
	fset *token.FileSet
	pkgs map[string]*Package
}

// NewTree returns a loader rooted at the testdata src directory.
func NewTree(root string) *Tree {
	return &Tree{root: root, fset: token.NewFileSet(), pkgs: make(map[string]*Package)}
}

// Load returns the tree package at importPath, loading it (and its
// in-tree imports, recursively) on first use.
func (t *Tree) Load(importPath string) (*Package, error) {
	if pkg, ok := t.pkgs[importPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("load: import cycle through %s", importPath)
		}
		return pkg, nil
	}
	t.pkgs[importPath] = nil // cycle guard
	dir := filepath.Join(t.root, filepath.FromSlash(importPath))
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	var files []*ast.File
	imports := make(map[string]bool)
	for _, name := range names {
		f, err := parser.ParseFile(t.fset, name, nil, parseMode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err == nil && p != "unsafe" {
				imports[p] = true
			}
		}
	}
	// Split imports: in-tree ones load from source, the rest from export
	// data — the same way the real driver sees a module package through its
	// compiled dependencies.
	srcs := make(map[string]*types.Package)
	external := make(map[string]bool)
	var importList []string
	for p := range imports {
		importList = append(importList, p)
	}
	sort.Strings(importList)
	for _, p := range importList {
		if sub, err := os.Stat(filepath.Join(t.root, filepath.FromSlash(p))); err == nil && sub.IsDir() {
			dep, err := t.Load(p)
			if err != nil {
				return nil, fmt.Errorf("load: %s imports %s: %w", importPath, p, err)
			}
			srcs[p] = dep.Types
		} else {
			external[p] = true
		}
	}
	exports, err := exportData(external)
	if err != nil {
		return nil, err
	}
	pkg := check(importPath, dir, t.fset, files, exports, srcs)
	pkg.Imports = importList
	t.pkgs[importPath] = pkg
	return pkg, nil
}

// exportDataCache memoizes export-data lookups across Tree loads: analyzer
// tests load many small testdata packages with overlapping stdlib imports,
// and each `go list -export` run costs a toolchain invocation.
var (
	exportDataMu    sync.Mutex
	exportDataCache = map[string]map[string]string{}
)

// exportData resolves an import set to export-data files via
// `go list -export -deps`.
func exportData(imports map[string]bool) (map[string]string, error) {
	if len(imports) == 0 {
		return nil, nil
	}
	paths := make([]string, 0, len(imports))
	for p := range imports {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	key := strings.Join(paths, ",")
	exportDataMu.Lock()
	defer exportDataMu.Unlock()
	if m, ok := exportDataCache[key]; ok {
		return m, nil
	}
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Export"}, paths...)
	entries, err := runGoList(args)
	if err != nil {
		return nil, err
	}
	m := make(map[string]string)
	for _, e := range entries {
		if e.Export != "" {
			m[e.ImportPath] = e.Export
		}
	}
	exportDataCache[key] = m
	return m, nil
}

// ModuleDir returns the root directory of the enclosing Go module.
func ModuleDir() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("load: go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("load: not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}

// modulePathCache memoizes ModulePath: the module path cannot change
// within a process and each resolution reads go.mod.
var (
	modulePathMu  sync.Mutex
	modulePathVal string
)

// ModulePath returns the import path of the enclosing Go module (the
// go.mod module directive) — the prefix that separates module-internal
// packages, whose facts the suite computes from source, from external ones.
func ModulePath() (string, error) {
	modulePathMu.Lock()
	defer modulePathMu.Unlock()
	if modulePathVal != "" {
		return modulePathVal, nil
	}
	dir, err := ModuleDir()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("load: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module"); ok {
			if p := strings.TrimSpace(strings.TrimSuffix(rest, "// indirect")); p != "" {
				modulePathVal = strings.Trim(p, `"`)
				return modulePathVal, nil
			}
		}
	}
	return "", fmt.Errorf("load: no module directive in %s/go.mod", dir)
}

// runGoList executes a go list command and decodes its JSON stream.
func runGoList(args []string) ([]listEntry, error) {
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go %s: %v\n%s", strings.Join(args[:2], " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var entries []listEntry
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decode go list output: %w", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// parseMode keeps comments: analyzers read //lint:allow annotations.
const parseMode = parser.ParseComments | parser.SkipObjectResolution

// treeImporter resolves imports preferring already source-checked packages
// (fixture trees) and falling back to compiled export data.
type treeImporter struct {
	gc   types.Importer
	srcs map[string]*types.Package
}

func (t *treeImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := t.srcs[path]; ok && pkg != nil {
		return pkg, nil
	}
	return t.gc.Import(path)
}

// check type-checks parsed files against the export-data map, with
// source-checked packages in srcs shadowing export data. Type errors are
// recorded on the package, not fatal: analysis.RunPackage reports them as
// findings instead of running the analyzers.
func check(importPath, dir string, fset *token.FileSet, files []*ast.File, exports map[string]string, srcs map[string]*types.Package) *Package {
	pkg := &Package{Path: importPath, Dir: dir, Fset: fset, Files: files}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		Importer: &treeImporter{gc: imp, srcs: srcs},
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	// Errors are collected via conf.Error; Check's own return duplicates
	// the first of them.
	pkg.Types, _ = conf.Check(importPath, fset, files, pkg.Info)
	return pkg
}
