// Package purity enforces, interprocedurally, that everything reachable
// from the module's determinism seed roots — the planner and cost model,
// canonical spec encoding, and summary merging — is a pure function of its
// inputs: no wall-clock or global-rand reads, no writes to package-level
// state, no map iteration whose order leaks into an ordered output.
//
// detrand and maporder check the same properties one function at a time;
// purity generalizes them through the static call graph (callgraph) and
// across package boundaries (the facts engine): a time.Now hidden one call
// below DefaultCost, or two packages away behind a helper, still poisons
// the root. Every function a package declares gets an ImpureFact when it
// is (transitively) impure; passes over importing packages read those
// facts for the callees they cannot see the bodies of. Diagnostics are
// only reported at seed roots — impurity elsewhere is unremarkable.
//
// Approximations, deliberately conservative (DESIGN.md §15): calls through
// function values and through module-declared interfaces are treated as
// impure-unknown (the callee is unprovable — the sanctioned escape is a
// //lint:allow purity with a justification at the call site); methods of
// standard-library types and interfaces are assumed pure except for the
// banned ambient sets; a module callee with no recorded fact is assumed
// pure, which is only sound when packages are analyzed in dependency order
// (the gatherlint driver does; single-package runs accept the blind spot).
// A //lint:allow purity at a cause site stops the impurity there instead
// of poisoning every transitive caller: the audit happens where the code
// is.
package purity

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"nochatter/internal/analysis"
	"nochatter/internal/analysis/callgraph"
	"nochatter/internal/analysis/detrand"
	"nochatter/internal/analysis/maporder"
)

const name = "purity"

// Analyzer is the purity pass.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "require everything reachable from the determinism seed roots " +
		"(planner, cost model, canonical encoding, summary merge) to be a " +
		"pure function of its inputs, across call and package boundaries",
	Run: run,
}

// ImpureFact marks a function as transitively impure; Reason is the cause
// chain down to the ambient read, global write, or unprovable call.
type ImpureFact struct {
	Reason string `json:"reason"`
}

// FactName implements analysis.Fact.
func (*ImpureFact) FactName() string { return "purity.impure" }

func (f *ImpureFact) String() string { return "impure: " + f.Reason }

// seedRoots lists, per package, the functions whose purity the module's
// determinism contract depends on (DESIGN.md §§9, 15): the chunk planner
// and its cost model (bit-identical plans on every process), canonical
// spec/summary encoding (content addresses), and summary merging
// (order-independent fleet folds). Methods are "Recv.Name".
var seedRoots = map[string][]string{
	"nochatter/internal/sched":   {"DefaultCost", "Planner.Plan", "Planner.PlanSpecs"},
	"nochatter/internal/service": {"CanonicalSpec", "SpecKey", "SweepSummaryKey"},
	"nochatter/internal/agg":     {"KeyOf", "Summary.Merge", "Summary.CanonicalJSON"},
}

// modulePrefix scopes "assume pure unless proven otherwise" to the
// module's own packages: stdlib bodies are never analyzed, so stdlib
// callees are governed by the banned ambient sets alone, while module
// callees are governed by facts.
const modulePrefix = "nochatter/"

func inModule(path string) bool {
	return path == strings.TrimSuffix(modulePrefix, "/") || strings.HasPrefix(path, modulePrefix)
}

// cause is why a function is impure, anchored at the site inside that
// function where the impurity enters.
type cause struct {
	pos    token.Pos
	reason string
}

func run(pass *analysis.Pass) error {
	g := callgraph.Build(pass.Pkg, pass.TypesInfo, pass.Files)

	// Direct causes per function, in source order; the first cause wins so
	// reports and facts are deterministic.
	direct := make(map[*types.Func]*cause)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if c := directCause(pass, g, fn, fd, file); c != nil {
				direct[fn] = c
			}
		}
	}

	// Fixpoint over the in-package call graph: a caller inherits the first
	// impure callee's cause, anchored at the call site.
	res := &resolver{pass: pass, g: g, direct: direct,
		state: make(map[*types.Func]int), impure: make(map[*types.Func]*cause)}
	for _, node := range g.Funcs {
		res.resolve(node.Fn)
	}

	// Export a fact for every impure function the package declares, so
	// passes over importing packages see through the boundary.
	for _, node := range g.Funcs {
		if c := res.impure[node.Fn]; c != nil {
			if err := pass.ExportObjectFact(node.Fn, &ImpureFact{Reason: c.reason}); err != nil {
				return err
			}
		}
	}

	// Report only at seed roots.
	roots := seedRoots[pass.Pkg.Path()]
	if len(roots) == 0 {
		return nil
	}
	for _, node := range g.Funcs {
		name := rootName(node.Fn)
		if !contains(roots, name) {
			continue
		}
		if c := res.impure[node.Fn]; c != nil {
			pass.Reportf(c.pos,
				"%s is a determinism seed root but is impure: %s (plans, keys and merges must be pure functions of their inputs; DESIGN.md §15)",
				name, c.reason)
		}
	}
	return nil
}

// rootName renders a function the way seedRoots spells it.
func rootName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

func contains(list []string, s string) bool {
	for _, e := range list {
		if e == s {
			return true
		}
	}
	return false
}

// directCause finds the first in-body impurity of fn: an ambient call, an
// unprovable callee, a fact-known impure import, a package-level write, or
// a map-order leak. In-package callees are skipped here — the resolver
// propagates their impurity. Sites suppressed by //lint:allow purity are
// skipped at the source, so one audited site needs one annotation.
func directCause(pass *analysis.Pass, g *callgraph.Graph, fn *types.Func, fd *ast.FuncDecl, file *ast.File) *cause {
	var causes []cause
	if node := g.Node(fn); node != nil {
		for _, call := range node.Calls {
			if r := callCause(pass, g, call); r != "" {
				causes = append(causes, cause{pos: call.Pos, reason: r})
			}
		}
	}
	if c := globalWriteCause(pass.TypesInfo, fd.Body); c != nil {
		causes = append(causes, *c)
	}
	for _, l := range maporder.Leaks(pass.TypesInfo, file, fd.Body) {
		causes = append(causes, cause{pos: l.Pos, reason: "leaks map iteration order (" + trimLeak(l.Message) + ")"})
	}
	var first *cause
	for i := range causes {
		c := &causes[i]
		if pass.SuppressedAt(name, c.pos) {
			continue
		}
		if first == nil || c.pos < first.pos {
			first = c
		}
	}
	return first
}

// trimLeak shortens a maporder message for embedding in a cause chain.
func trimLeak(msg string) string {
	if i := strings.Index(msg, ";"); i >= 0 {
		return msg[:i]
	}
	return msg
}

// callCause classifies one out-edge: "" means the callee is provably or
// presumptively pure.
func callCause(pass *analysis.Pass, g *callgraph.Graph, call callgraph.Call) string {
	if call.Callee == nil {
		return "calls through a function value (" + call.Dynamic + "), whose purity cannot be proven"
	}
	callee := call.Callee
	if call.Interface {
		// Stdlib interfaces (hash.Hash, io.Writer, error) follow the
		// stdlib-methods-are-pure policy; module interfaces hide module
		// implementations the graph cannot enumerate.
		if callee.Pkg() != nil && inModule(callee.Pkg().Path()) {
			return "calls " + call.Dynamic + ", whose implementations cannot be enumerated statically"
		}
		return ""
	}
	if r := ambientReason(callee); r != "" {
		return r
	}
	if callee.Pkg() == nil || callee.Pkg() == pass.Pkg {
		return "" // builtins and in-package callees: handled elsewhere
	}
	if inModule(callee.Pkg().Path()) {
		var f ImpureFact
		if pass.ImportObjectFact(callee, &f) {
			return "calls " + callee.Pkg().Name() + "." + rootName(callee) + ", which is impure: " + f.Reason
		}
	}
	return ""
}

// osAmbient are the os package reads of ambient process identity —
// different per host/process/run, so as deadly to content addresses as a
// clock read.
var osAmbient = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
	"Getpid": true, "Getppid": true, "Hostname": true, "Getwd": true,
	"TempDir": true, "UserHomeDir": true, "UserCacheDir": true, "UserConfigDir": true,
}

// ambientReason extends detrand's banned time/rand set with the other
// ambient-state reads purity forbids transitively.
func ambientReason(fn *types.Func) string {
	if r := detrand.AmbientReason(fn); r != "" {
		return r
	}
	if fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "crypto/rand":
		return "reads the system entropy source (crypto/rand." + fn.Name() + ")"
	case "os":
		if osAmbient[fn.Name()] {
			return "reads ambient process state (os." + fn.Name() + ")"
		}
	}
	return ""
}

// globalWriteCause finds the first write whose target resolves to a
// package-level variable. Writes through local pointers that alias a
// global are a known blind spot (DESIGN.md §15).
func globalWriteCause(info *types.Info, body ast.Node) *cause {
	var found *cause
	consider := func(e ast.Expr, pos token.Pos) {
		if found != nil {
			return
		}
		if v := rootVar(info, e); v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			found = &cause{pos: pos, reason: "writes package-level state " + v.Name()}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true // := introduces locals; it cannot target package scope
			}
			for _, lhs := range s.Lhs {
				consider(lhs, s.Pos())
			}
		case *ast.IncDecStmt:
			consider(s.X, s.Pos())
		}
		return true
	})
	return found
}

// rootVar strips selector/index/deref chains down to the variable that
// owns the written storage: x in x.f[i] = v, the qualified global in
// pkg.Global = v. Nil when the root is not a variable.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			obj := info.Uses[t]
			if obj == nil {
				obj = info.Defs[t]
			}
			v, _ := obj.(*types.Var)
			return v
		case *ast.SelectorExpr:
			if id, ok := t.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					v, _ := info.Uses[t.Sel].(*types.Var)
					return v
				}
			}
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// resolver propagates impurity through the in-package call graph by
// memoized depth-first search. Cycles resolve optimistically (a cycle with
// no direct cause anywhere on it is pure), matching the fixpoint least
// solution.
type resolver struct {
	pass   *analysis.Pass
	g      *callgraph.Graph
	direct map[*types.Func]*cause
	state  map[*types.Func]int // 0 unvisited, 1 visiting, 2 done
	impure map[*types.Func]*cause
}

func (r *resolver) resolve(fn *types.Func) *cause {
	switch r.state[fn] {
	case 1:
		return nil // back edge: break the cycle optimistically
	case 2:
		return r.impure[fn]
	}
	r.state[fn] = 1
	c := r.direct[fn]
	node := r.g.Node(fn)
	if node != nil {
		for _, call := range node.Calls {
			if call.Callee == nil || call.Interface || call.Callee.Pkg() != r.pass.Pkg {
				continue
			}
			callee := call.Callee
			if r.g.Node(callee) == nil {
				continue // declared without body (assembly stubs); assume pure
			}
			cc := r.resolve(callee)
			if cc == nil {
				continue
			}
			if r.pass.SuppressedAt(name, call.Pos) {
				continue
			}
			reason := "calls " + rootName(callee) + ", which is impure: " + cc.reason
			if c == nil || call.Pos < c.pos {
				c = &cause{pos: call.Pos, reason: reason}
			}
		}
	}
	r.state[fn] = 2
	if c != nil {
		r.impure[fn] = c
	}
	return c
}
