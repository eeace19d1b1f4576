// Package gatherlint assembles the repo's determinism lint suite: the
// analyzers that machine-check the invariants every layer since PR 1
// depends on (bit-identical results and summaries at any parallelism and
// deployment shape — DESIGN.md §11, §15). cmd/gatherlint is the CLI front
// end; the self-lint test in this package is the dogfooding gate that
// keeps the module itself clean.
//
// The driver is facts-aware: packages are analyzed in dependency order
// over one in-memory fact database, so every dependency's facts exist
// before a dependent reads them. Module-internal dependencies of the
// requested packages are analyzed too (their facts feed the
// interprocedural analyzers) but their findings are dropped — they belong
// to runs that name them.
package gatherlint

import (
	"fmt"
	"sort"

	"nochatter/internal/analysis"
	atomiclint "nochatter/internal/analysis/atomic"
	"nochatter/internal/analysis/detrand"
	"nochatter/internal/analysis/errsink"
	"nochatter/internal/analysis/load"
	"nochatter/internal/analysis/lockscope"
	"nochatter/internal/analysis/maporder"
	"nochatter/internal/analysis/purity"
	"nochatter/internal/analysis/wiretags"
)

// Suite returns the full analyzer suite in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrand.Analyzer,
		maporder.Analyzer,
		wiretags.Analyzer,
		lockscope.Analyzer,
		purity.Analyzer,
		errsink.Analyzer,
		atomiclint.Analyzer,
	}
}

// Run loads the packages matching the patterns and applies the analyzers,
// returning every surviving finding and the per-analyzer wall time, so CI
// can watch the suite's cost.
func Run(analyzers []*analysis.Analyzer, patterns ...string) ([]analysis.Diagnostic, *analysis.Stats, error) {
	pkgs, err := load.Packages(patterns...)
	if err != nil {
		return nil, nil, err
	}
	ordered, err := topoOrder(pkgs)
	if err != nil {
		return nil, nil, err
	}
	db := analysis.NewFactDB()
	stats := &analysis.Stats{}
	var diags []analysis.Diagnostic
	for _, pkg := range ordered {
		d, err := analysis.RunPackage(pkg, analyzers, db, stats)
		if err != nil {
			return nil, nil, err
		}
		if !pkg.DepOnly {
			diags = append(diags, d...)
		}
	}
	return diags, stats, nil
}

// topoOrder sorts packages so every package follows its in-set
// dependencies — the order that makes "no fact recorded means pure" sound.
// Ties break lexically by import path, keeping the whole run deterministic.
func topoOrder(pkgs []*load.Package) ([]*load.Package, error) {
	byPath := make(map[string]*load.Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	sort.Strings(paths)

	ordered := make([]*load.Package, 0, len(pkgs))
	state := make(map[string]int, len(pkgs)) // 0 new, 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		pkg, ok := byPath[path]
		if !ok {
			return nil // external dependency: facts come from nowhere, by design
		}
		switch state[path] {
		case 1:
			return fmt.Errorf("gatherlint: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		for _, imp := range pkg.Imports {
			if err := visit(imp); err != nil {
				return err
			}
		}
		state[path] = 2
		ordered = append(ordered, pkg)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}
