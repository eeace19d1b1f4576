// Package wiretags checks the structs that cross the wire or feed
// canonical JSON: every exported field must carry an explicit json tag,
// no field may be interface-typed, and map fields must have string keys.
//
// The content address of a spec and the canonical encoding of a summary
// are functions of the JSON bytes (DESIGN.md §§8–9), and those bytes are
// a function of the struct's tags. An untagged exported field silently
// changes its wire name when the Go field is renamed — altering every
// content address in the fleet without any test noticing. An
// interface-typed field makes the encoding depend on the dynamic type at
// runtime, and a non-string map key drags in Go's TextMarshaler fallback
// ordering; both put bytes on the wire the canonicalizer never sees
// coming. (map[string]any values are fine: the canonical encoder
// normalizes every param value, directly or through a per-value
// encoding/json round trip, so only the key order and field names need to
// be pinned statically.)
//
// A struct is wire-reachable if any of its fields already carries a json
// tag, if it appears in an encoding/json marshal/unmarshal/encode/decode
// call in the package, or if a wire-reachable struct embeds it or uses it
// as a field type. Embedded (anonymous) fields need no tag — inlining is
// the idiom — but their types join the wire set.
package wiretags

import (
	"go/ast"
	"go/types"
	"reflect"
	"strconv"

	"nochatter/internal/analysis"
)

// Analyzer is the wiretags pass.
var Analyzer = &analysis.Analyzer{
	Name: "wiretags",
	Doc: "require explicit json tags, no interface fields, and string " +
		"map keys on wire-reachable structs",
	Run: run,
}

// structDecl is one named struct type declaration in the package.
type structDecl struct {
	name *ast.Ident
	st   *ast.StructType
	obj  types.Object
}

func run(pass *analysis.Pass) error {
	if !analysis.WirePackage(pass.Pkg.Path()) {
		return nil
	}
	decls := collectStructs(pass)
	byType := make(map[types.Object]*structDecl, len(decls))
	for _, d := range decls {
		byType[d.obj] = d
	}
	wire := make(map[*structDecl]bool)
	// Seed: structs that already speak JSON (any tagged field), and
	// structs passed to encoding/json calls.
	for _, d := range decls {
		if hasJSONTag(d.st) {
			wire[d] = true
		}
	}
	for d := range seededByCalls(pass, byType) {
		wire[d] = true
	}
	// Close over field types: a wire struct's fields are wire too. A
	// struct with its own MarshalJSON owns its encoding — tags are
	// irrelevant to it and its fields do not inherit wire status; its wire
	// form is some other (tag-seeded) struct checked in its own right.
	var queue []*structDecl
	for _, d := range decls {
		if wire[d] {
			queue = append(queue, d)
		}
	}
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if hasCustomMarshaler(d) {
			continue
		}
		for _, f := range d.st.Fields.List {
			ft := pass.TypesInfo.Types[f.Type].Type
			if ft == nil {
				continue
			}
			if fd := declOf(byType, ft); fd != nil && !wire[fd] {
				wire[fd] = true
				queue = append(queue, fd)
			}
		}
	}
	for _, d := range decls {
		if wire[d] && !hasCustomMarshaler(d) {
			checkStruct(pass, d)
		}
	}
	return nil
}

// hasCustomMarshaler reports whether the struct type (or its pointer)
// implements json.Marshaler and therefore bypasses tag-driven encoding.
func hasCustomMarshaler(d *structDecl) bool {
	tn, ok := d.obj.(*types.TypeName)
	if !ok {
		return false
	}
	t := tn.Type()
	for _, recv := range []types.Type{t, types.NewPointer(t)} {
		obj, _, _ := types.LookupFieldOrMethod(recv, true, tn.Pkg(), "MarshalJSON")
		if _, isFunc := obj.(*types.Func); isFunc {
			return true
		}
	}
	return false
}

// collectStructs gathers the package's named struct declarations.
func collectStructs(pass *analysis.Pass) []*structDecl {
	var out []*structDecl
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			if obj := pass.TypesInfo.Defs[ts.Name]; obj != nil {
				out = append(out, &structDecl{name: ts.Name, st: st, obj: obj})
			}
			return false
		})
	}
	return out
}

// hasJSONTag reports whether any field of the struct carries a json tag.
func hasJSONTag(st *ast.StructType) bool {
	for _, f := range st.Fields.List {
		if _, ok := jsonTag(f); ok {
			return true
		}
	}
	return false
}

// jsonTag extracts a field's json struct tag.
func jsonTag(f *ast.Field) (string, bool) {
	if f.Tag == nil {
		return "", false
	}
	raw, err := strconv.Unquote(f.Tag.Value)
	if err != nil {
		return "", false
	}
	return reflect.StructTag(raw).Lookup("json")
}

// seededByCalls finds package structs whose values flow into encoding/json
// marshal/unmarshal/encode/decode calls.
func seededByCalls(pass *analysis.Pass, byType map[types.Object]*structDecl) map[*structDecl]bool {
	out := make(map[*structDecl]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			isJSON := fn.Pkg().Path() == "encoding/json"
			name := fn.Name()
			if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
				// Methods: (*json.Encoder).Encode, (*json.Decoder).Decode.
				recv := sig.Recv().Type()
				isJSON = named(recv) != nil && named(recv).Obj().Pkg() != nil &&
					named(recv).Obj().Pkg().Path() == "encoding/json"
			}
			if !isJSON {
				return true
			}
			switch name {
			case "Marshal", "MarshalIndent", "Unmarshal", "Encode", "Decode":
			default:
				return true
			}
			for _, arg := range call.Args {
				t := pass.TypesInfo.Types[arg].Type
				if d := declOf(byType, t); d != nil {
					out[d] = true
				}
			}
			return true
		})
	}
	return out
}

// named unwraps pointers down to a named type, if any.
func named(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x
		case *types.Alias:
			t = types.Unalias(x)
		default:
			return nil
		}
	}
}

// declOf resolves a type to the package-local struct declaration it names,
// unwrapping pointers, slices, arrays, and map values.
func declOf(byType map[types.Object]*structDecl, t types.Type) *structDecl {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Slice:
			t = x.Elem()
		case *types.Array:
			t = x.Elem()
		case *types.Map:
			t = x.Elem()
		case *types.Alias:
			t = types.Unalias(x)
		case *types.Named:
			if d, ok := byType[x.Obj()]; ok {
				return d
			}
			return nil
		default:
			return nil
		}
	}
}

// checkStruct enforces the wire rules on one struct's fields.
func checkStruct(pass *analysis.Pass, d *structDecl) {
	for _, f := range d.st.Fields.List {
		ft := pass.TypesInfo.Types[f.Type].Type
		if len(f.Names) == 0 {
			// Embedded field: inlined by encoding/json, no tag wanted.
			continue
		}
		for _, name := range f.Names {
			if !name.IsExported() {
				continue
			}
			if tag, ok := jsonTag(f); !ok || tag == "" {
				pass.Reportf(name.Pos(),
					"exported field %s.%s has no json tag: wire names must be pinned explicitly or a rename changes every content address",
					d.name.Name, name.Name)
			}
			if ft == nil {
				continue
			}
			if _, isIface := ft.Underlying().(*types.Interface); isIface {
				pass.Reportf(name.Pos(),
					"field %s.%s is interface-typed: its encoding depends on the runtime value, which canonicalization cannot pin",
					d.name.Name, name.Name)
			}
			if m, isMap := ft.Underlying().(*types.Map); isMap {
				if b, ok := m.Key().Underlying().(*types.Basic); !ok || b.Kind() != types.String {
					pass.Reportf(name.Pos(),
						"field %s.%s has non-string map keys: encoding/json falls back to TextMarshaler ordering the canonicalizer never sees",
						d.name.Name, name.Name)
				}
			}
		}
	}
}
