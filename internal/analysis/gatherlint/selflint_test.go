package gatherlint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nochatter/internal/analysis"
	"nochatter/internal/analysis/errsink"
	"nochatter/internal/analysis/gatherlint"
	"nochatter/internal/analysis/load"
	"nochatter/internal/analysis/maporder"
	"nochatter/internal/analysis/purity"
)

// TestRepoIsLintClean is the dogfooding gate: the whole module must pass
// its own determinism lint suite. A finding here means either a real
// invariant violation or a missing //lint:allow with justification.
func TestRepoIsLintClean(t *testing.T) {
	diags, _, err := gatherlint.Run(gatherlint.Suite(), "nochatter/...")
	if err != nil {
		t.Fatalf("gatherlint.Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d.String())
	}
}

// copyPackage copies the non-test Go files of a module package into a
// GOPATH-shaped temp tree, <root>/<importPath>, so injection tests can
// mutate a copy of real code without touching the tree. It returns the
// root and the package's directory in it.
func copyPackage(t *testing.T, importPath string) (root, dir string) {
	t.Helper()
	mod, err := load.ModuleDir()
	if err != nil {
		t.Fatalf("load.ModuleDir: %v", err)
	}
	src := filepath.Join(mod, filepath.FromSlash(strings.TrimPrefix(importPath, "nochatter/")))
	root = t.TempDir()
	dir = filepath.Join(root, filepath.FromSlash(importPath))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(src, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root, dir
}

// lintCopy runs the full suite over the copied package at importPath in
// the tree at root, failing the test on load or analysis errors. Its
// module imports come from export data, as in a gatherlint run.
func lintCopy(t *testing.T, root, importPath string) []analysis.Diagnostic {
	t.Helper()
	pkg, err := load.NewTree(root).Load(importPath)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := analysis.RunPackage(pkg, gatherlint.Suite(), nil, nil)
	if err != nil {
		t.Fatalf("analysis.RunPackage: %v", err)
	}
	return diags
}

// requireCleanBaseline fails fast when the copied package already has
// findings: the injection result would be meaningless.
func requireCleanBaseline(t *testing.T, diags []analysis.Diagnostic) {
	t.Helper()
	if len(diags) == 0 {
		return
	}
	for _, d := range diags {
		t.Errorf("copy of clean package has finding: %s", d.String())
	}
	t.Fatal("baseline not clean; injection result would be meaningless")
}

// TestInjectedViolationFails proves the suite has teeth: a copy of a
// formerly-clean package gains one nondeterministic map iteration, and
// maporder must catch it.
func TestInjectedViolationFails(t *testing.T) {
	const path = "nochatter/internal/graph"
	root, dir := copyPackage(t, path)
	requireCleanBaseline(t, lintCopy(t, root, path))

	injected := `package graph

// DegreeLabels leaks map iteration order into its returned slice.
func DegreeLabels(byDegree map[int]string) []string {
	var out []string
	for _, label := range byDegree {
		out = append(out, label)
	}
	return out
}
`
	if err := os.WriteFile(filepath.Join(dir, "injected.go"), []byte(injected), 0o644); err != nil {
		t.Fatal(err)
	}

	diags := lintCopy(t, root, path)
	found := false
	for _, d := range diags {
		if d.Analyzer == maporder.Analyzer.Name && strings.HasSuffix(d.Pos.Filename, "injected.go") {
			found = true
		}
	}
	if !found {
		t.Fatalf("maporder did not flag the injected violation; findings: %v", diags)
	}
}

// TestInjectedPurityViolationFails hides a wall-clock read one call below
// the DefaultCost seed root: an injected helper reads time.Now, and the
// cost model gains a call to it. purity must walk the call chain and
// report the root.
func TestInjectedPurityViolationFails(t *testing.T) {
	const path = "nochatter/internal/sched"
	root, dir := copyPackage(t, path)
	requireCleanBaseline(t, lintCopy(t, root, path))

	injected := `package sched

import "time"

// nowNanos leaks the wall clock into whoever calls it.
func nowNanos() int64 { return time.Now().UnixNano() }
`
	if err := os.WriteFile(filepath.Join(dir, "injected.go"), []byte(injected), 0o644); err != nil {
		t.Fatal(err)
	}
	patchFile(t, filepath.Join(dir, "cost.go"), "cost += specCostFloor", "cost += specCostFloor + nowNanos()*0")

	diags := lintCopy(t, root, path)
	found := false
	for _, d := range diags {
		if d.Analyzer == purity.Analyzer.Name && strings.Contains(d.Message, "DefaultCost") &&
			strings.Contains(d.Message, "nowNanos") {
			found = true
		}
	}
	if !found {
		t.Fatalf("purity did not flag the injected seed-root violation; findings: %v", diags)
	}
}

// TestInjectedPurityCrossesExportData hides a wall-clock read under
// spec.ScenarioSpec.AppendCanonical in a copy of internal/spec, then lints
// an unmodified copy of internal/service, which sees spec only through
// compiled export data, as every dependent does in a gatherlint run. The
// impurity must reach the service's key roots through facts found by
// object key, since the export-data objects are not the ones the spec
// pass analyzed.
func TestInjectedPurityCrossesExportData(t *testing.T) {
	const specPath, servicePath = "nochatter/internal/spec", "nochatter/internal/service"
	specRoot, specDir := copyPackage(t, specPath)
	injected := `package spec

import "time"

// stampNanos leaks the wall clock into whoever calls it.
func stampNanos() int64 { return time.Now().UnixNano() }
`
	if err := os.WriteFile(filepath.Join(specDir, "injected.go"), []byte(injected), 0o644); err != nil {
		t.Fatal(err)
	}
	const appendCanonical = "func (s ScenarioSpec) AppendCanonical(dst []byte) ([]byte, error) {\n"
	patchFile(t, filepath.Join(specDir, "canonical.go"), appendCanonical, appendCanonical+"\t_ = stampNanos()\n")
	serviceRoot, _ := copyPackage(t, servicePath)

	db := analysis.NewFactDB()
	suite := []*analysis.Analyzer{purity.Analyzer}
	var diags []analysis.Diagnostic
	for _, c := range []struct{ root, path string }{{specRoot, specPath}, {serviceRoot, servicePath}} {
		pkg, err := load.NewTree(c.root).Load(c.path)
		if err != nil {
			t.Fatalf("load %s: %v", c.path, err)
		}
		if diags, err = analysis.RunPackage(pkg, suite, db, nil); err != nil {
			t.Fatalf("analysis.RunPackage %s: %v", c.path, err)
		}
	}
	for _, root := range []string{"CanonicalSpec", "SpecKey", "SweepSummaryKey"} {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, root+" is a determinism seed root") &&
				strings.Contains(d.Message, "spec.ScenarioSpec.AppendCanonical") &&
				strings.Contains(d.Message, "stampNanos") {
				found = true
			}
		}
		if !found {
			t.Errorf("purity did not carry the spec impurity to %s; service findings: %v", root, diags)
		}
	}
}

// patchFile replaces the first occurrence of old in the file, failing the
// test when the file no longer contains it.
func patchFile(t *testing.T, file, old, new string) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), old) {
		t.Fatalf("%s no longer contains %q; update the injection", filepath.Base(file), old)
	}
	if err := os.WriteFile(file, []byte(strings.Replace(string(data), old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestInjectedErrsinkViolationFails adds a method that drops a journal
// Sync error on the floor; errsink must catch it.
func TestInjectedErrsinkViolationFails(t *testing.T) {
	const path = "nochatter/internal/journal"
	root, dir := copyPackage(t, path)
	requireCleanBaseline(t, lintCopy(t, root, path))

	injected := `package journal

// lazySync syncs on a best-effort basis, silently.
func (j *Journal) lazySync() {
	j.Sync()
}
`
	if err := os.WriteFile(filepath.Join(dir, "injected.go"), []byte(injected), 0o644); err != nil {
		t.Fatal(err)
	}

	diags := lintCopy(t, root, path)
	found := false
	for _, d := range diags {
		if d.Analyzer == errsink.Analyzer.Name && strings.HasSuffix(d.Pos.Filename, "injected.go") {
			found = true
		}
	}
	if !found {
		t.Fatalf("errsink did not flag the injected violation; findings: %v", diags)
	}
}
