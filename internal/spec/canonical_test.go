package spec

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
)

// FuzzCanonicalJSON checks that canonical encoding is a fixed point:
// encoding a decoded JSON value, re-decoding the result and encoding again
// must be byte-identical. The cache key material (AppendCanonical, the
// service's SpecKey) and the merge-order-independence of agg summaries
// both rest on this.
func FuzzCanonicalJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"b":1,"a":2}`))
	f.Add([]byte(`{"n":1.0,"m":1e2,"k":-0.5,"big":18446744073709551615}`))
	f.Add([]byte(`[1,"two",true,null,{"x":[]}]`))
	f.Add([]byte(`{"graph":{"family":"ring","n":8},"agents":[{"label":1,"start":0}]}`))
	f.Add([]byte(`{"<é>":"a \"\\\t","�":1e400}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, ok := decodeJSON(data)
		if !ok {
			return // not JSON; nothing to canonicalize
		}
		c1, err := appendValue(nil, v)
		if err != nil {
			t.Fatalf("appendValue on decoded value: %v", err)
		}
		v2, ok := decodeJSON(c1)
		if !ok {
			t.Fatalf("canonical form %q is not valid JSON", c1)
		}
		c2, err := appendValue(nil, v2)
		if err != nil {
			t.Fatalf("appendValue on re-decoded value: %v", err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical encoding is not a fixed point:\n first: %s\nsecond: %s", c1, c2)
		}
	})
}

func decodeJSON(data []byte) (any, bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	return v, dec.Decode(&v) == nil
}

// viaEncodingJSON is the canonical encoding of one value by definition:
// marshaled, decoded with UseNumber and written from the decoded form.
func viaEncodingJSON(t *testing.T, v any) ([]byte, error) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec, ok := decodeJSON(raw)
	if !ok {
		t.Fatalf("encoding/json output %q does not decode", raw)
	}
	return appendValue(nil, dec)
}

// TestValidNumberMatchesEncodingJSON compares the json.Number check with
// encoding/json's on every string of up to five characters over an
// alphabet of the grammar's symbols.
func TestValidNumberMatchesEncodingJSON(t *testing.T) {
	const alphabet = "019-+.eEx "
	var walk func(string)
	checked := 0
	walk = func(s string) {
		if s != "" {
			_, err := json.Marshal(json.Number(s))
			if got, want := validNumber(s), err == nil; got != want {
				t.Fatalf("validNumber(%q) = %v, encoding/json accepts it: %v", s, got, want)
			}
			checked++
		}
		if len(s) == 5 {
			return
		}
		for i := range len(alphabet) {
			walk(s + alphabet[i:i+1])
		}
	}
	walk("")
	t.Logf("checked %d literals", checked)
}

// TestAppendValueMatchesEncodingJSON checks param values against the
// per-value round trip: floats at the format and integer cutoffs and at
// random bit patterns, json.Number spellings, strings of random bytes, and
// values encoding/json refuses, which must fail with its error.
func TestAppendValueMatchesEncodingJSON(t *testing.T) {
	values := []any{
		0.0, math.Copysign(0, -1), 0.1, 1e-6, 9.99e-7, 1e-7, 1e15, 1e15 + 2, 3e15, 1e20, 1e21, 1e300,
		5e-324, math.MaxFloat64, -2.5, 9223372036854775807.0, -9223372036854775808.0, 18446744073709551615.0,
		float32(0.1), float32(1e-6), float32(9.99e-7), float32(1e21), float32(3e38), float32(-7),
		json.Number("5.0"), json.Number("5e0"), json.Number("-0"), json.Number("1e400"), json.Number("-1e400"),
		json.Number("1E+2"), json.Number("0.000001"), json.Number("18446744073709551616"), json.Number(""),
		json.Number("9007199254740993.0"), json.Number("-9223372036854775809"), json.Number("1e-400"),
		"", "plain", "<>&", `"\`, "\x00\x1f\x7f", "é✓𝄞", "  ", "\xff", "a\xc3", "\xed\xa0\x80",
		int8(math.MinInt8), uint64(math.MaxUint64), int64(math.MinInt64), true, false, nil,
		// Refused alone, and nested where only the round trip reaches them.
		math.NaN(), math.Inf(1), float32(math.Inf(-1)), json.Number("5."), json.Number("0x10"), json.Number(" 1"),
		make(chan int), func() {}, complex(1, 2), []any{1, math.NaN()}, []float64{math.NaN()},
		map[string]any{"a": map[string]any{"b": json.Number("--1")}}, map[string]any{"\xff": math.Inf(1)},
	}
	r := rand.New(rand.NewPCG(17, 17))
	for range 2000 {
		values = append(values, math.Float64frombits(r.Uint64()), math.Float32frombits(r.Uint32()))
		b := make([]byte, r.IntN(8))
		for i := range b {
			b[i] = byte(r.IntN(256))
		}
		values = append(values, string(b))
	}
	for _, v := range values {
		got, err := appendValue(nil, v)
		want, wantErr := viaEncodingJSON(t, v)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%T %#v: error %v, encoding/json error %v", v, v, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Errorf("%T %#v: error %q, encoding/json says %q", v, v, err, wantErr)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%T %#v: encoded %s, round trip gives %s", v, v, got, want)
		}
	}
}
