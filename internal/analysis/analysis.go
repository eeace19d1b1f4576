// Package analysis is the kernel of gatherlint, the repo's determinism
// lint suite: a deliberately small, standard-library-only analogue of
// golang.org/x/tools/go/analysis (which this module cannot vendor — the
// go.mod is dependency-free and lint tooling must build offline). An
// Analyzer is a named pass over one type-checked package; a Pass hands it
// the syntax, type information, a reporter and the facts of the packages
// it imports; RunPackage drives a suite of analyzers over a loaded package
// and applies the `//lint:allow` escape-hatch filter. The analyzers
// themselves live in subpackages (detrand, maporder, wiretags, lockscope,
// purity, errsink, atomic) and the suite is assembled in
// internal/analysis/gatherlint, consumed by cmd/gatherlint and CI.
//
// What the suite defends is the module's load-bearing invariant: results
// and summaries are bit-identical at any parallelism and any deployment
// shape (DESIGN.md §§9–11). The analyzers turn that from a sampled
// differential-test property into a machine-checked rule.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"

	"nochatter/internal/analysis/load"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in reports and in //lint:allow
	// annotations. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: what the analyzer forbids and
	// which invariant that protects.
	Doc string
	// Run inspects one package via the pass and reports findings. A
	// returned error is an analyzer failure (a bug or an unloadable
	// package), not a finding.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	facts  *FactDB
	diags  *[]Diagnostic
	allows *allowIndex
}

// ExportObjectFact records a fact about obj (a package-level object or
// method of the package under analysis) for later passes over importing
// packages. With no fact database wired (single-package runs), exporting
// is a no-op — in-package analysis never depends on it.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) error {
	return p.facts.export(obj, f, obj.Pos())
}

// ImportObjectFact copies the fact recorded for obj under f's FactName
// into f, reporting whether one existed. Objects from imported packages
// resolve by stable key, so facts exported by the pass that analyzed the
// dependency from source are visible here through export-data objects.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	return p.facts.lookup(obj, f)
}

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Stats accumulates per-analyzer wall time across RunPackage calls,
// so suite-cost regressions are visible in CI (the lint job prints it).
type Stats struct {
	Elapsed map[string]time.Duration
}

// add accumulates one analyzer's elapsed time. A nil *Stats discards.
func (s *Stats) add(name string, d time.Duration) {
	if s == nil {
		return
	}
	if s.Elapsed == nil {
		s.Elapsed = make(map[string]time.Duration)
	}
	s.Elapsed[name] += d
}

// RunPackage runs the analyzers over one loaded package and returns the
// surviving findings, sorted by position: `//lint:allow`-suppressed
// diagnostics are dropped, and malformed allow annotations are themselves
// reported (the escape hatch must carry a justification). A package with
// type errors yields those as diagnostics instead of running any analyzer
// — findings over a package that does not compile would be noise. Facts
// exported by the analyzers land in db, which must already hold the facts
// of the package's dependencies (gatherlint.Run analyzes in dependency order);
// a nil db runs one package alone, where cross-package facts resolve to
// nothing. stats, when non-nil, accumulates per-analyzer wall time.
func RunPackage(pkg *load.Package, analyzers []*Analyzer, db *FactDB, stats *Stats) ([]Diagnostic, error) {
	if len(pkg.TypeErrors) > 0 {
		diags := make([]Diagnostic, 0, len(pkg.TypeErrors))
		for _, err := range pkg.TypeErrors {
			d := Diagnostic{Analyzer: "typecheck", Message: err.Error()}
			if te, ok := err.(types.Error); ok {
				d.Pos = te.Fset.Position(te.Pos)
				d.Message = te.Msg
			}
			diags = append(diags, d)
		}
		return diags, nil
	}
	allows := collectAllows(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			facts:     db,
			diags:     &diags,
			allows:    allows,
		}
		start := time.Now()
		err := a.Run(pass)
		stats.add(a.Name, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("analysis %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	kept := allows.filter(diags)
	kept = append(kept, allows.malformed...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, nil
}
