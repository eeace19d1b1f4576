package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"nochatter/internal/spec"
)

func key(t *testing.T, sp spec.ScenarioSpec) string {
	t.Helper()
	k, err := SpecKey(sp)
	if err != nil {
		t.Fatalf("SpecKey: %v", err)
	}
	return k
}

// TestSpecKeyStableAcrossSpellings proves the content address is a function
// of the scenario's semantics: field order, number spelling, map iteration
// order and the name label must not change the key.
func TestSpecKeyStableAcrossSpellings(t *testing.T) {
	goBuilt := spec.ScenarioSpec{
		Name:  "a-label-that-must-not-matter",
		Graph: spec.GraphSpec{Family: "ring", N: 8},
		Agents: []spec.AgentSpec{
			{Label: 1, Start: 0, Algorithm: spec.Randomized(1<<60+3, 0)},
			{Label: 2, Start: 4, Algorithm: spec.Randomized(1<<60+3, 0)},
		},
	}
	// The same scenario hand-written as JSON: reordered fields, a different
	// name, the seed spelled as a plain integer literal (parsed as
	// json.Number, not uint64), horizon absent.
	parsed, err := spec.Parse([]byte(`{
		"agents": [
			{"algorithm": {"params": {"seed": 1152921504606846979}, "name": "randomized"}, "start": 0, "label": 1},
			{"label": 2, "start": 4, "algorithm": {"name": "randomized", "params": {"seed": 1152921504606846979}}}
		],
		"graph": {"n": 8, "family": "ring"},
		"name": "another-label"
	}`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if k1, k2 := key(t, goBuilt), key(t, parsed); k1 != k2 {
		t.Errorf("Go-built and parsed spellings of one scenario hash differently:\n%s\n%s", k1, k2)
	}
}

// TestSpecKeyNormalizesNumbers proves 1.0-style float spellings and integer
// spellings of the same parameter collide, while different values do not.
func TestSpecKeyNormalizesNumbers(t *testing.T) {
	intParam := spec.ScenarioSpec{
		Graph: spec.GraphSpec{Family: "ring", N: 6},
		Agents: []spec.AgentSpec{{Label: 1, Algorithm: spec.AlgorithmSpec{
			Name: "custom", Params: map[string]any{"x": 7},
		}}},
	}
	floatParam := intParam
	floatParam.Agents = []spec.AgentSpec{{Label: 1, Algorithm: spec.AlgorithmSpec{
		Name: "custom", Params: map[string]any{"x": 7.0},
	}}}
	if key(t, intParam) != key(t, floatParam) {
		t.Errorf("7 and 7.0 hash differently")
	}
	other := intParam
	other.Agents = []spec.AgentSpec{{Label: 1, Algorithm: spec.AlgorithmSpec{
		Name: "custom", Params: map[string]any{"x": 8},
	}}}
	if key(t, intParam) == key(t, other) {
		t.Errorf("different parameter values hash identically")
	}
}

// TestSpecKeySeparatesScenarios spot-checks that semantically different
// specs get different keys.
func TestSpecKeySeparatesScenarios(t *testing.T) {
	base := spec.ScenarioSpec{
		Graph: spec.GraphSpec{Family: "ring", N: 8},
		Agents: []spec.AgentSpec{
			{Label: 1, Start: 0, Algorithm: spec.Known()},
			{Label: 2, Start: 4, Algorithm: spec.Known()},
		},
	}
	seen := map[string]string{key(t, base): "base"}
	for name, mutate := range map[string]func(*spec.ScenarioSpec){
		"graph size":  func(sp *spec.ScenarioSpec) { sp.Graph.N = 9 },
		"family":      func(sp *spec.ScenarioSpec) { sp.Graph.Family = "path" },
		"start":       func(sp *spec.ScenarioSpec) { sp.Agents[1].Start = 5 },
		"wake":        func(sp *spec.ScenarioSpec) { sp.Agents[1].Wake = 3 },
		"label":       func(sp *spec.ScenarioSpec) { sp.Agents[0].Label = 7 },
		"algorithm":   func(sp *spec.ScenarioSpec) { sp.Agents[0].Algorithm = spec.Gossip("1") },
		"max rounds":  func(sp *spec.ScenarioSpec) { sp.MaxRounds = 99 },
		"agent count": func(sp *spec.ScenarioSpec) { sp.Agents = sp.Agents[:1] },
	} {
		sp := base
		sp.Agents = append([]spec.AgentSpec(nil), base.Agents...)
		mutate(&sp)
		k := key(t, sp)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestCanonicalSpecShape pins the canonical encoding's gross shape: compact,
// sorted keys, no name.
func TestCanonicalSpecShape(t *testing.T) {
	canon, err := CanonicalSpec(spec.ScenarioSpec{
		Name:   "dropped",
		Graph:  spec.GraphSpec{Family: "ring", N: 3},
		Agents: []spec.AgentSpec{{Label: 1, Algorithm: spec.Known()}},
	})
	if err != nil {
		t.Fatalf("CanonicalSpec: %v", err)
	}
	got := string(canon)
	if strings.Contains(got, "dropped") {
		t.Errorf("canonical encoding leaks the name: %s", got)
	}
	want := `{"agents":[{"algorithm":{"name":"known"},"label":1,"start":0}],"graph":{"family":"ring","n":3}}`
	if got != want {
		t.Errorf("canonical encoding drifted:\ngot  %s\nwant %s", got, want)
	}
}

// referenceCanonicalSpec is the canonical encoding by its definition: the
// whole spec (Name cleared) marshaled by encoding/json, decoded with
// UseNumber and re-encoded with sorted keys and normalized numbers. The
// one-pass encoder must reproduce it byte for byte, and fail on exactly
// the inputs it fails on.
func referenceCanonicalSpec(sp spec.ScenarioSpec) ([]byte, error) {
	sp.Name = ""
	raw, err := json.Marshal(sp)
	if err != nil {
		return nil, fmt.Errorf("service: canonicalize: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("service: canonicalize: %w", err)
	}
	var buf bytes.Buffer
	if err := referenceWrite(&buf, v); err != nil {
		return nil, fmt.Errorf("service: canonicalize: %w", err)
	}
	return buf.Bytes(), nil
}

// referenceWrite renders a decoded JSON value deterministically.
func referenceWrite(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case nil:
		buf.WriteString("null")
	case bool:
		if x {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case string:
		enc, err := json.Marshal(x)
		if err != nil {
			return err
		}
		buf.Write(enc)
	case json.Number:
		buf.WriteString(referenceNumber(x))
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := referenceWrite(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			enc, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(enc)
			buf.WriteByte(':')
			if err := referenceWrite(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	default:
		return fmt.Errorf("unexpected JSON value of type %T", v)
	}
	return nil
}

// referenceNumber maps every JSON spelling of the same number to one form.
func referenceNumber(n json.Number) string {
	s := n.String()
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return strconv.FormatInt(i, 10)
	}
	if u, err := strconv.ParseUint(s, 10, 64); err == nil {
		return strconv.FormatUint(u, 10)
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return s
	}
	if f == float64(int64(f)) && f >= -1e15 && f <= 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// checkAgainstReference fails unless CanonicalSpec and the reference agree
// on sp: the same bytes, or the same error. (A spec with two faults may
// report either first; the tests give each failing spec one.)
func checkAgainstReference(t *testing.T, name string, sp spec.ScenarioSpec) {
	t.Helper()
	got, err := CanonicalSpec(sp)
	want, refErr := referenceCanonicalSpec(sp)
	if (err != nil) != (refErr != nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("%s: CanonicalSpec error %v, reference error %v", name, err, refErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: one-pass encoding differs from the reference round trip:\ngot  %s\nwant %s", name, got, want)
	}
}

// TestCanonicalSpecMatchesReference runs every spec of the golden key
// corpus through both encoders.
func TestCanonicalSpecMatchesReference(t *testing.T) {
	for _, c := range keyCorpus(t) {
		checkAgainstReference(t, c.name, c.sp)
	}
}

// TestCanonicalCoversEveryField sets each exported field of ScenarioSpec,
// GraphSpec, AgentSpec and AlgorithmSpec, one at a time, to a non-zero
// value: the key must change (Name alone labels without changing the
// run), and the one-pass encoding must equal the reference round trip. A
// field added to the types but not to the encoder fails here instead of
// silently dropping out of every key.
func TestCanonicalCoversEveryField(t *testing.T) {
	base := spec.ScenarioSpec{
		Graph:  spec.GraphSpec{Family: "ring"},
		Agents: []spec.AgentSpec{{Algorithm: spec.AlgorithmSpec{Name: "known"}}},
	}
	baseKey := key(t, base)
	var fields []string
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			name := path + f.Name
			fv := v.Field(i)
			switch {
			case f.Type.Kind() == reflect.Struct:
				walk(name+".", fv)
				continue
			case f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct:
				if fv.Len() == 0 {
					t.Fatalf("%s: the base spec needs one element to reach its fields", name)
				}
				walk(name+"[0].", fv.Index(0))
				continue
			}
			old := reflect.New(f.Type).Elem()
			old.Set(fv)
			setNonZero(t, name, fv)
			fields = append(fields, name)
			checkAgainstReference(t, name, base)
			if changed := key(t, base) != baseKey; changed != (name != "Name") {
				t.Errorf("%s: setting it changed the key: %v (every field but the spec's Name must)", name, changed)
			}
			fv.Set(old)
		}
	}
	walk("", reflect.ValueOf(&base).Elem())
	t.Logf("covered %d fields: %v", len(fields), fields)
	if key(t, base) != baseKey {
		t.Fatalf("the walk did not restore the base spec")
	}
}

// setNonZero sets a field to a value different from its current one.
func setNonZero(t *testing.T, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "-set")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		m.SetMapIndex(reflect.ValueOf("k"), reflect.ValueOf(1))
		v.Set(m)
	default:
		t.Fatalf("%s: no non-zero value for a %s field; extend setNonZero", name, v.Type())
	}
}
