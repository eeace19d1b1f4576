// Package analysistest runs an analyzer over testdata packages and checks
// its findings against `// want` annotations — the standard-library
// analogue of golang.org/x/tools/go/analysis/analysistest.
//
// Testdata mirrors a GOPATH layout, testdata/src/<importpath>/*.go, and
// the import path is real: analyzers scope rules by package path, so a
// fixture at testdata/src/nochatter/internal/sim/x is determinism-critical
// exactly like the package it mirrors, while testdata/src/example.com/y
// is not. A line expecting a finding carries a comment of the form
//
//	code() // want "regexp"
//
// where the quoted (or backquoted) regexp must match the analyzer
// message; several want patterns on one line expect several findings.
// Findings without a want, and wants without a finding, fail the test.
// `//lint:allow` suppression runs before matching, so fixtures also prove
// the escape hatch works.
//
// Packages load through load.Tree, so fixtures may import each other
// (testdata/src/a importing testdata/src/a/dep), and all packages named in
// one Run share a fact database the way the gatherlint driver shares one:
// list dependencies before dependents. A line where the analyzer should
// export a fact carries
//
//	func Helper() {} // want-fact "regexp"
//
// matched against the rendering (fmt.Sprint) of a fact exported for an
// object defined on that line. want-fact asserts presence, not
// exhaustiveness: facts without annotations are fine (they are
// implementation detail), annotations without facts fail.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nochatter/internal/analysis"
	"nochatter/internal/analysis/load"
)

// wantRe matches one quoted or backquoted pattern in a want comment.
var wantRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// Run loads each testdata package and checks the analyzer's diagnostics
// against its want annotations and its exported facts against want-fact
// annotations. Packages are analyzed in the listed order over one shared
// fact database — list fixture dependencies before their dependents.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, importPaths ...string) {
	t.Helper()
	tree := load.NewTree(filepath.Join(testdata, "src"))
	db := analysis.NewFactDB()
	for _, path := range importPaths {
		pkg, err := tree.Load(path)
		if err != nil {
			t.Errorf("%s: load: %v", path, err)
			continue
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", path, terr)
		}
		if len(pkg.TypeErrors) > 0 {
			continue
		}
		diags, err := analysis.RunPackage(pkg, []*analysis.Analyzer{a}, db, nil)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		check(t, pkg, diags)
		checkFacts(t, pkg, db)
	}
}

// want is one expected finding.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// check compares findings against the package's want annotations.
func check(t *testing.T, pkg *load.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkg, "// want ")
	for _, d := range diags {
		if w := matchWant(wants, d.Pos.Filename, d.Pos.Line, d.Message); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("unexpected finding: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// checkFacts compares the database's exported facts against the package's
// want-fact annotations. Presence-only: every annotation must match a fact
// recorded for an object defined on its line, unannotated facts pass.
func checkFacts(t *testing.T, pkg *load.Package, db *analysis.FactDB) {
	t.Helper()
	wants := collectWants(t, pkg, "// want-fact ")
	if len(wants) == 0 {
		return
	}
	for _, ef := range db.Exported() {
		pos := pkg.Fset.Position(ef.Pos)
		if w := matchWant(wants, pos.Filename, pos.Line, fmt.Sprint(ef.Fact)); w != nil {
			w.matched = true
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected an exported fact matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// matchWant finds an unmatched want at file:line whose pattern matches.
func matchWant(wants []*want, file string, line int, text string) *want {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.pattern.MatchString(text) {
			return w
		}
	}
	return nil
}

// collectWants scans the package's comments for annotations with the given
// prefix ("// want " or "// want-fact ").
func collectWants(t *testing.T, pkg *load.Package, prefix string) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, prefix)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ws, err := parseWants(pos, text)
				if err != nil {
					t.Errorf("%s:%d: %v", pos.Filename, pos.Line, err)
					continue
				}
				wants = append(wants, ws...)
			}
		}
	}
	return wants
}

// parseWants parses every pattern in one want comment.
func parseWants(pos token.Position, text string) ([]*want, error) {
	matches := wantRe.FindAllStringSubmatch(text, -1)
	if len(matches) == 0 {
		return nil, fmt.Errorf("malformed want comment: no quoted pattern in %q", text)
	}
	wants := make([]*want, 0, len(matches))
	for _, m := range matches {
		raw := m[1]
		if m[2] != "" {
			raw = m[2]
		} else {
			// Quoted form: unescape \" so patterns can contain quotes.
			raw = strings.ReplaceAll(raw, `\"`, `"`)
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			return nil, fmt.Errorf("bad want pattern %q: %v", raw, err)
		}
		wants = append(wants, &want{file: pos.Filename, line: pos.Line, pattern: re})
	}
	return wants, nil
}
