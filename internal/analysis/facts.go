package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"reflect"
)

// The facts layer is what makes the suite interprocedural: an analyzer
// running on package B can record typed facts about B's functions
// ("DefaultCost is impure: calls time.Now"), and the same analyzer running
// later on a package that imports B looks those facts up by object — the
// same division of labor go/analysis Facts establish, rebuilt here without
// x/tools. Facts are keyed by a stable object key (package path plus
// name, method receiver included), not by go/types object identity,
// because an importing package sees its dependencies through compiled
// export data and therefore through *different* types.Object values than
// the pass that analyzed the dependency from source.
//
// Facts live in memory for one run, as the analyzers' own values:
// gatherlint.Run analyzes packages in dependency order over one FactDB,
// and no fact is written to or read from a file.

// Fact is one typed statement about an object. Implementations must be
// pointers; FactName returns a stable identifier ("purity.impure") that
// namespaces the fact across analyzers.
type Fact interface {
	FactName() string
}

// ExportedFact is the record of one ExportObjectFact call: the fact plus
// where its object is declared. analysistest matches `// want-fact`
// annotations against these.
type ExportedFact struct {
	Pkg  string
	Key  string
	Pos  token.Pos
	Fact Fact
}

// FactDB holds the facts of one run, keyed by object key and fact name.
// Callers analyze packages in dependency order so that a pass's imports
// are already present. A nil *FactDB is legal everywhere and holds
// nothing.
type FactDB struct {
	facts    map[factKey]Fact
	exported []ExportedFact
}

// factKey names one fact: an ObjectKey and a FactName.
type factKey struct{ obj, name string }

// NewFactDB returns an empty fact database.
func NewFactDB() *FactDB {
	return &FactDB{facts: make(map[factKey]Fact)}
}

// ObjectKey returns the stable cross-package key of a package-level object
// or method: "pkgpath:Name" for package-level objects, "pkgpath:Recv.Name"
// for methods. Objects without a package (builtins, the universe scope)
// have no key.
func ObjectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			rt := sig.Recv().Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			named, ok := rt.(*types.Named)
			if !ok {
				return "", false // method on an unnamed receiver; not addressable
			}
			name = named.Obj().Name() + "." + name
		}
	}
	return obj.Pkg().Path() + ":" + name, true
}

// export records a fact about obj.
func (db *FactDB) export(obj types.Object, f Fact, pos token.Pos) error {
	if db == nil {
		return nil
	}
	key, ok := ObjectKey(obj)
	if !ok {
		return fmt.Errorf("facts: object %v has no stable key", obj)
	}
	db.facts[factKey{key, f.FactName()}] = f
	db.exported = append(db.exported, ExportedFact{Pkg: obj.Pkg().Path(), Key: key, Pos: pos, Fact: f})
	return nil
}

// lookup copies the fact recorded for obj under f's name into f, reporting
// whether one existed. A fact of another type stored under the same name
// reads as absent.
func (db *FactDB) lookup(obj types.Object, f Fact) bool {
	if db == nil {
		return false
	}
	key, ok := ObjectKey(obj)
	if !ok {
		return false
	}
	stored, ok := db.facts[factKey{key, f.FactName()}]
	if !ok {
		return false
	}
	dst, src := reflect.ValueOf(f), reflect.ValueOf(stored)
	if dst.Type() != src.Type() || dst.Kind() != reflect.Pointer {
		return false
	}
	dst.Elem().Set(src.Elem())
	return true
}

// Exported returns the log of every fact exported into the database, in
// export order.
func (db *FactDB) Exported() []ExportedFact {
	if db == nil {
		return nil
	}
	return db.exported
}
