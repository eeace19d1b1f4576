// gatherlint runs the repo's determinism lint suite: custom static
// analyzers (internal/analysis) that prove the invariants content
// addressing and cluster merging depend on — no ambient clock or
// randomness in canonical paths (detrand), no map-order leaks into
// ordered output (maporder), pinned wire encodings (wiretags), no locks
// held across blocking calls nor context-less fleet HTTP (lockscope),
// purity of the determinism seed roots across call and package boundaries
// (purity), no discarded crash-safety errors (errsink), and coherent
// atomic/nil-receiver discipline (atomic). See DESIGN.md §11 and §15.
//
// Usage:
//
//	gatherlint [-only detrand,maporder] [-json] [-stats] [packages...]   # default ./...
//	gatherlint -list
//
// Findings print as file:line:col: analyzer: message and the exit status
// is 1 when any survive their //lint:allow filters. Under GITHUB_ACTIONS
// each finding is also emitted as an ::error workflow annotation so it
// lands on the PR diff. With -json, stdout carries exactly one JSON
// object per finding ({"file","line","col","analyzer","message"}) for
// machine consumption — CI archives it as an artifact — and the human
// lines move to stderr. -stats prints per-analyzer wall time to stderr so
// suite-cost regressions are visible in the lint job's log.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"nochatter/internal/analysis"
	"nochatter/internal/analysis/gatherlint"
)

// jsonDiag is the machine-readable form of one finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the suite's analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit one JSON object per finding on stdout (human output moves to stderr)")
	stats := flag.Bool("stats", false, "print per-analyzer wall time to stderr")
	flag.Parse()

	suite := gatherlint.Suite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		suite = selectAnalyzers(suite, *only)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, st, err := gatherlint.Run(suite, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatherlint:", err)
		os.Exit(2)
	}
	human := os.Stdout
	if *jsonOut {
		human = os.Stderr
	}
	github := os.Getenv("GITHUB_ACTIONS") == "true"
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		fmt.Fprintln(human, relativize(d))
		if *jsonOut {
			if err := enc.Encode(jsonDiag{
				File:     relPath(d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "gatherlint:", err)
				os.Exit(2)
			}
		}
		if github {
			fmt.Fprintf(human, "::error file=%s,line=%d,col=%d,title=gatherlint %s::%s\n",
				relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if *stats {
		printStats(suite, st)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "gatherlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// printStats renders per-analyzer wall time in suite order (analyzers the
// run skipped print nothing), then any residue alphabetically.
func printStats(suite []*analysis.Analyzer, st *analysis.Stats) {
	printed := make(map[string]bool, len(st.Elapsed))
	for _, a := range suite {
		if d, ok := st.Elapsed[a.Name]; ok {
			fmt.Fprintf(os.Stderr, "gatherlint: %-10s %v\n", a.Name, d.Round(time.Millisecond/10))
			printed[a.Name] = true
		}
	}
	var rest []string
	for name := range st.Elapsed {
		if !printed[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		fmt.Fprintf(os.Stderr, "gatherlint: %-10s %v\n", name, st.Elapsed[name])
	}
}

// selectAnalyzers filters the suite by name, failing on unknown names so
// a typo cannot silently skip a check.
func selectAnalyzers(suite []*analysis.Analyzer, only string) []*analysis.Analyzer {
	byName := make(map[string]*analysis.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "gatherlint: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		out = append(out, a)
	}
	return out
}

// relativize renders a diagnostic with a working-directory-relative path:
// shorter to read, and the form CI annotations need.
func relativize(d analysis.Diagnostic) string {
	d.Pos.Filename = relPath(d.Pos.Filename)
	return d.String()
}

// relPath makes a path relative to the working directory when possible.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	if rel, ok := strings.CutPrefix(path, wd+string(os.PathSeparator)); ok {
		return rel
	}
	return path
}
