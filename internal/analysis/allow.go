package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The `//lint:allow <analyzer>[,<analyzer>...] <justification>` annotation
// suppresses the named analyzers' findings on its own line and on the line
// directly below it (so it can sit above a statement or trail it). The
// justification is mandatory: an exception to a determinism invariant is
// only acceptable when the code explains why it is safe, and gatherlint
// reports a bare annotation as its own finding.

// allowIndex maps file → line → analyzer names allowed there.
type allowIndex struct {
	byLine    map[string]map[int][]string
	malformed []Diagnostic
}

// collectAllows scans the files' comments for lint:allow annotations.
func collectAllows(fset *token.FileSet, files []*ast.File) *allowIndex {
	idx := &allowIndex{byLine: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					idx.malformed = append(idx.malformed, Diagnostic{
						Pos: pos, Analyzer: "lint",
						Message: "lint:allow names no analyzer",
					})
					continue
				}
				if len(fields) < 2 {
					idx.malformed = append(idx.malformed, Diagnostic{
						Pos: pos, Analyzer: "lint",
						Message: "lint:allow " + fields[0] + " has no justification; say why the exception is safe",
					})
					continue
				}
				lines := idx.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					idx.byLine[pos.Filename] = lines
				}
				for _, name := range strings.Split(fields[0], ",") {
					if name = strings.TrimSpace(name); name != "" {
						lines[pos.Line] = append(lines[pos.Line], name)
					}
				}
			}
		}
	}
	return idx
}

// SuppressedAt reports whether a //lint:allow annotation for the named
// analyzer covers pos. The post-hoc filter in RunPackage only drops
// diagnostics at the annotated site; interprocedural analyzers use this to
// treat an audited call site as benign at the source, so one allow does not
// have to be repeated at every transitive caller.
func (p *Pass) SuppressedAt(name string, pos token.Pos) bool {
	return p.allows.allowed(name, p.Fset.Position(pos))
}

// allowed reports whether a finding by the named analyzer at pos is
// suppressed: an annotation on the same line or the line above covers it.
func (idx *allowIndex) allowed(name string, pos token.Position) bool {
	lines := idx.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, n := range lines[line] {
			if n == name {
				return true
			}
		}
	}
	return false
}

// filter drops suppressed diagnostics.
func (idx *allowIndex) filter(diags []Diagnostic) []Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		if !idx.allowed(d.Analyzer, d.Pos) {
			kept = append(kept, d)
		}
	}
	return kept
}
