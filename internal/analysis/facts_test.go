package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

// testFact is a minimal Fact for exercising the database directly.
type testFact struct {
	Reason string
}

func (*testFact) FactName() string { return "test.fact" }

// fixtureObjects builds a package with a function F and a method (*T).M —
// the two object shapes ObjectKey must distinguish.
func fixtureObjects() (pkg *types.Package, fn, method *types.Func) {
	pkg = types.NewPackage("example.com/p", "p")
	fn = types.NewFunc(token.NoPos, pkg, "F",
		types.NewSignatureType(nil, nil, nil, nil, nil, false))
	tn := types.NewTypeName(token.NoPos, pkg, "T", nil)
	named := types.NewNamed(tn, types.NewStruct(nil, nil), nil)
	recv := types.NewVar(token.NoPos, pkg, "t", types.NewPointer(named))
	method = types.NewFunc(token.NoPos, pkg, "M",
		types.NewSignatureType(recv, nil, nil, nil, nil, false))
	return pkg, fn, method
}

func TestObjectKey(t *testing.T) {
	_, fn, method := fixtureObjects()
	if key, ok := ObjectKey(fn); !ok || key != "example.com/p:F" {
		t.Errorf("ObjectKey(F) = %q, %v; want example.com/p:F, true", key, ok)
	}
	if key, ok := ObjectKey(method); !ok || key != "example.com/p:T.M" {
		t.Errorf("ObjectKey((*T).M) = %q, %v; want example.com/p:T.M, true", key, ok)
	}
	if _, ok := ObjectKey(nil); ok {
		t.Error("ObjectKey(nil) reported a key")
	}
}

// otherFact shares testFact's name but not its type.
type otherFact struct {
	N int
}

func (*otherFact) FactName() string { return "test.fact" }

// TestFactsRoundTrip exports facts on one set of objects and finds them
// through a second, separately built set: a dependent's pass sees its
// imports through export data, as objects other than the ones its
// dependency's pass analyzed, so facts must resolve by key.
func TestFactsRoundTrip(t *testing.T) {
	_, fn, method := fixtureObjects()
	db := NewFactDB()
	if err := db.export(fn, &testFact{Reason: "calls time.Now"}, token.NoPos); err != nil {
		t.Fatalf("export F: %v", err)
	}
	if err := db.export(method, &testFact{Reason: "writes global state"}, token.NoPos); err != nil {
		t.Fatalf("export (*T).M: %v", err)
	}

	_, fn2, method2 := fixtureObjects()
	var got testFact
	if !db.lookup(fn2, &got) || got.Reason != "calls time.Now" {
		t.Errorf("lookup(F) = %+v, want reason %q", got, "calls time.Now")
	}
	if !db.lookup(method2, &got) || got.Reason != "writes global state" {
		t.Errorf("lookup((*T).M) = %+v, want reason %q", got, "writes global state")
	}
	// lookup copies: the caller's fact is its own.
	got.Reason = "changed by the caller"
	if !db.lookup(method2, &got) || got.Reason != "writes global state" {
		t.Errorf("lookup((*T).M) after the caller changed its copy = %+v", got)
	}

	// A nil database finds nothing.
	var nildb *FactDB
	if nildb.lookup(fn2, &got) {
		t.Error("nil FactDB lookup reported a fact")
	}

	// A fact of another type under the same name reads as absent.
	if err := db.export(fn, &otherFact{N: 1}, token.NoPos); err != nil {
		t.Fatalf("export other fact on F: %v", err)
	}
	if db.lookup(fn2, &got) {
		t.Errorf("lookup(F) read a fact of another type as %+v", got)
	}
}
