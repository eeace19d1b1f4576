package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"nochatter/internal/sim"
	"nochatter/internal/spec"
)

var updateKeys = flag.Bool("update", false, "rewrite testdata/golden_keys.txt from the current encoder")

const goldenKeysFile = "testdata/golden_keys.txt"

// keyCase is one corpus spec; wantErr marks the inputs that have no key.
type keyCase struct {
	name    string
	sp      spec.ScenarioSpec
	wantErr bool
}

// team returns k known-bound agents with the given wakes (padded with 0).
func team(k int, wakes ...int) []spec.AgentSpec {
	agents := make([]spec.AgentSpec, k)
	for i := range agents {
		agents[i] = spec.AgentSpec{Label: i + 1, Start: 2 * i, Algorithm: spec.Known()}
		if i < len(wakes) {
			agents[i].Wake = wakes[i]
		}
	}
	return agents
}

// customParams is a one-agent spec whose algorithm carries params.
func customParams(params map[string]any) spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Graph:  spec.GraphSpec{Family: "ring", N: 6},
		Agents: []spec.AgentSpec{{Label: 1, Algorithm: spec.AlgorithmSpec{Name: "custom", Params: params}}},
	}
}

// keyCorpus is the fixed corpus of TestGoldenSpecKeys: hand-picked specs
// that reach every field, every number and string spelling the encoder
// normalizes and every input it refuses, then seeded random specs. Every
// spec that encodes is listed twice: as built in Go and as re-parsed from
// its JSON, where numbers arrive as json.Number.
func keyCorpus(tb testing.TB) []keyCase {
	var cases []keyCase
	add := func(name string, sp spec.ScenarioSpec) {
		cases = append(cases, keyCase{name: name, sp: sp})
		raw, err := json.Marshal(sp)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		parsed, err := spec.Parse(raw)
		if err != nil {
			tb.Fatalf("%s: re-parse: %v", name, err)
		}
		cases = append(cases, keyCase{name: name + "/parsed", sp: parsed})
	}
	bad := func(name string, sp spec.ScenarioSpec) {
		cases = append(cases, keyCase{name: name, sp: sp, wantErr: true})
	}

	// Every graph family, with the parameters it reads.
	for _, gs := range []spec.GraphSpec{
		{Family: "ring", N: 8},
		{Family: "path", N: 6},
		{Family: "complete", N: 5},
		{Family: "star", N: 6},
		{Family: "grid", N: 12, Rows: 3},
		{Family: "torus", N: 12, Rows: 4},
		{Family: "hypercube", N: 3},
		{Family: "tree", N: 9, Seed: 4},
		{Family: "gnp", N: 10, P: 0.35, Seed: 7},
		{Family: "gnp", N: 10, P: 1e-7, Seed: -3},
		{Family: "barbell", N: 4, Tail: 3},
		{Family: "lollipop", N: 5, Tail: 2},
		{Family: "two"},
	} {
		add("family/"+gs.Family, spec.ScenarioSpec{Graph: gs, Agents: team(2)})
	}

	// Every registered algorithm, and the parameters of each.
	for _, alg := range []spec.AlgorithmSpec{
		spec.Known(),
		spec.Gossip("1011"),
		spec.Gossip(""),
		spec.Unknown(0, 0),
		spec.Unknown(3, 12),
		spec.Randomized(math.MaxUint64-2, 0),
		spec.Randomized(7, 500),
		spec.Baseline(),
	} {
		add("algorithm/"+alg.Name, spec.ScenarioSpec{
			Graph: spec.GraphSpec{Family: "ring", N: 6},
			Agents: []spec.AgentSpec{
				{Label: 1, Start: 0, Algorithm: alg},
				{Label: 2, Start: 3, Algorithm: alg},
			},
		})
	}
	// The built-in names, listed rather than read from the registry so that
	// a test registering another algorithm cannot shift the corpus.
	for _, name := range []string{"baseline", "gossip", "known", "randomized", "unknown"} {
		add("registered/"+name, spec.ScenarioSpec{
			Graph:  spec.GraphSpec{Family: "path", N: 4},
			Agents: []spec.AgentSpec{{Label: 1, Algorithm: spec.AlgorithmSpec{Name: name}}},
		})
	}

	// Wakes, round caps, names and degenerate teams.
	add("wake/delayed", spec.ScenarioSpec{Graph: spec.GraphSpec{Family: "ring", N: 8}, Agents: team(3, 0, 5, 40)})
	add("wake/dormant", spec.ScenarioSpec{Graph: spec.GraphSpec{Family: "ring", N: 8}, Agents: team(3, 0, sim.DormantUntilVisited, sim.DormantUntilVisited)})
	add("max-rounds", spec.ScenarioSpec{Graph: spec.GraphSpec{Family: "ring", N: 8}, Agents: team(2), MaxRounds: 1000})
	add("max-rounds/negative", spec.ScenarioSpec{Graph: spec.GraphSpec{Family: "ring", N: 8}, Agents: team(2), MaxRounds: -1})
	add("named", spec.ScenarioSpec{Name: "ring-8", Graph: spec.GraphSpec{Family: "ring", N: 8}, Agents: team(2)})
	add("named/other", spec.ScenarioSpec{Name: "x <&> \"y\"", Graph: spec.GraphSpec{Family: "ring", N: 8}, Agents: team(2)})
	add("agents/nil", spec.ScenarioSpec{Graph: spec.GraphSpec{Family: "ring", N: 8}})
	add("agents/empty", spec.ScenarioSpec{Graph: spec.GraphSpec{Family: "ring", N: 8}, Agents: []spec.AgentSpec{}})
	add("zero", spec.ScenarioSpec{})
	add("negative-fields", spec.ScenarioSpec{
		Graph:  spec.GraphSpec{Family: "grid", N: -4, Rows: -2, P: -0.5, Seed: math.MinInt64, Tail: -1},
		Agents: []spec.AgentSpec{{Label: -3, Start: -1, Wake: math.MinInt}},
	})
	add("p/negative-zero", spec.ScenarioSpec{Graph: spec.GraphSpec{Family: "gnp", N: 6, P: math.Copysign(0, -1)}, Agents: team(2)})
	add("p/tiny", spec.ScenarioSpec{Graph: spec.GraphSpec{Family: "gnp", N: 6, P: 5e-324}, Agents: team(2)})
	add("p/huge", spec.ScenarioSpec{Graph: spec.GraphSpec{Family: "gnp", N: 6, P: math.MaxFloat64}, Agents: team(2)})
	add("p/integral", spec.ScenarioSpec{Graph: spec.GraphSpec{Family: "gnp", N: 6, P: 1}, Agents: team(2)})

	// Numbers: Go integers of every width, floats on both sides of the
	// integer and exponent cutoffs, and json.Number spellings.
	add("params/ints", customParams(map[string]any{
		"int": 7, "int8": int8(-8), "int16": int16(300), "int32": int32(-70000), "int64": int64(math.MinInt64),
		"uint": uint(9), "uint8": uint8(255), "uint16": uint16(65535), "uint32": uint32(math.MaxUint32),
		"uint64": uint64(math.MaxUint64 - 1), "max": math.MaxInt64,
	}))
	add("params/floats", customParams(map[string]any{
		"tenth": 0.1, "3e15": 3e15, "1e21": 1e21, "1e15": 1e15, "neg": -2.5, "seven": 7.0,
		"tiny": 1e-7, "micro": 1e-6, "negzero": math.Copysign(0, -1), "f32": float32(0.1), "f32big": float32(3e21),
		"huge": 1.5e300, "2^63": 9223372036854775808.0, "2^64": 18446744073709551616.0,
	}))
	add("params/numbers", customParams(map[string]any{
		"a": json.Number("5.0"), "b": json.Number("1e2"), "c": json.Number("-0"), "d": json.Number("1e400"),
		"e": json.Number("5e0"), "f": json.Number("-1"), "g": json.Number("18446744073709551615"),
		"h": json.Number("18446744073709551616"), "i": json.Number("9007199254740993.0"), "j": json.Number("0.1"),
		"k": json.Number("1E-7"), "l": json.Number("-9223372036854775809"), "m": json.Number(""),
		"n": json.Number("1e+3"), "o": json.Number("123456789012345678901234567890"),
	}))
	add("params/seed-spellings", customParams(map[string]any{"seed": json.Number("5.0")}))
	add("params/seed-int", customParams(map[string]any{"seed": 5}))

	// Strings: the HTML-escaped runes, quotes, backslashes, control
	// characters, non-ASCII, line separators and invalid UTF-8.
	add("params/strings", customParams(map[string]any{
		"html": "<a href='x'>&amp;</a>", "quote": `say "hi"`, "backslash": `C:\path\n`,
		"control": "tab\there\nnewline\r\x00\x01\x1f\x7f", "unicode": "héllo, wörld ✓ 𝄞",
		"sep": "a\u2028b\u2029c", "invalid": "bad \xff\xfe byte \xc3", "empty": "", "plain": "just text 123",
		"ascii": " !#$%'()*+,-./:;=?@[]^_`{|}~",
	}))
	add("params/keys", customParams(map[string]any{
		"<key>": 1, "a\"b": 2, "tab\tkey": 3, "ü": 4, "": 5, "Z": 6, "a": 7, "\u2028": 8,
	}))
	add("strings/graph-and-name", spec.ScenarioSpec{
		Graph:  spec.GraphSpec{Family: "ring<&>\"\\\x01é\xff", N: 5},
		Agents: []spec.AgentSpec{{Label: 1, Algorithm: spec.AlgorithmSpec{Name: "algo\t<x>\u2029\xfe"}}},
	})

	// Nested, typed and degenerate parameter values.
	add("params/nested", customParams(map[string]any{
		"map":   map[string]any{"z": 1, "a": []any{1, "two", true, nil, 2.5, json.Number("3.0")}, "m": map[string]any{}},
		"slice": []any{map[string]any{"b": false, "a": json.Number("1e2")}, []any{}, "x<y"},
		"ints":  []int{3, 1, 2},
		"strs":  []string{"b", "a<"},
		"u64s":  []uint64{math.MaxUint64},
		"f64s":  []float64{0.1, 1e21, 3},
		"typed": map[string]int{"y": 2, "x": 1},
		"rec":   struct{ B, A int }{B: 1, A: 2},
		"ptr":   &[]int{4},
		"raw":   json.RawMessage(`{"b": 1.0, "a": [ 1e2 ]}`),
		"bools": true, "off": false, "nil": nil,
		"nilmap": map[string]any(nil), "nilslice": []any(nil), "niltyped": []int(nil),
	}))
	add("params/empty", customParams(map[string]any{}))
	add("params/invalid-keys", customParams(map[string]any{"\xff": 1, "\xfe": 2, "ok": 3}))
	add("params/nested-invalid-keys", customParams(map[string]any{"m": map[string]any{"\xffa": 1, "\xfea": 2, "b": 3}}))

	// Seeded random specs over every family, algorithm and wake kind.
	r := rand.New(rand.NewPCG(2020, 17))
	families := []string{"barbell", "complete", "gnp", "grid", "hypercube", "lollipop", "path", "ring", "star", "torus", "tree", "two"}
	for i := range 200 {
		gs := spec.GraphSpec{Family: families[r.IntN(len(families))], N: 2 + r.IntN(40)}
		if r.IntN(3) == 0 {
			gs.Rows = 1 + r.IntN(5)
		}
		if r.IntN(3) == 0 {
			gs.P = r.Float64()
		}
		if r.IntN(3) == 0 {
			gs.Seed = r.Int64() - r.Int64()
		}
		if r.IntN(3) == 0 {
			gs.Tail = r.IntN(6)
		}
		agents := make([]spec.AgentSpec, 1+r.IntN(4))
		for j := range agents {
			ag := spec.AgentSpec{Label: 1 + r.IntN(200), Start: r.IntN(gs.N)}
			switch r.IntN(4) {
			case 1:
				ag.Wake = 1 + r.IntN(100)
			case 2:
				ag.Wake = sim.DormantUntilVisited
			}
			switch r.IntN(5) {
			case 0:
				ag.Algorithm = spec.Known()
			case 1:
				ag.Algorithm = spec.Gossip(fmt.Sprintf("%b", r.IntN(64)))
			case 2:
				ag.Algorithm = spec.Unknown(r.IntN(4), r.IntN(20))
			case 3:
				ag.Algorithm = spec.Randomized(r.Uint64(), r.IntN(3)*1000)
			case 4:
				ag.Algorithm = spec.Baseline()
			}
			agents[j] = ag
		}
		sp := spec.ScenarioSpec{Graph: gs, Agents: agents}
		if r.IntN(4) == 0 {
			sp.MaxRounds = r.IntN(1 << 20)
		}
		if r.IntN(2) == 0 {
			sp.Name = fmt.Sprintf("random-%d", i)
		}
		add(fmt.Sprintf("random/%d", i), sp)
	}

	// The inputs that have no key.
	bad("error/nan-p", spec.ScenarioSpec{Graph: spec.GraphSpec{Family: "gnp", N: 6, P: math.NaN()}, Agents: team(2)})
	bad("error/inf-p", spec.ScenarioSpec{Graph: spec.GraphSpec{Family: "gnp", N: 6, P: math.Inf(-1)}, Agents: team(2)})
	bad("error/invalid-number", customParams(map[string]any{"x": json.Number("5.")}))
	bad("error/word-number", customParams(map[string]any{"x": json.Number("five")}))
	bad("error/chan", customParams(map[string]any{"x": make(chan int)}))
	bad("error/nested-nan", customParams(map[string]any{"x": []any{1, map[string]any{"y": math.Inf(1)}}}))
	bad("error/typed-nan", customParams(map[string]any{"x": []float64{math.NaN()}}))
	bad("error/func", customParams(map[string]any{"x": func() {}}))
	return cases
}

// TestGoldenSpecKeys pins the content addresses: one SHA-256 over every
// corpus spec's SpecKey (or an error marker), over the SweepSummaryKey of
// the whole list of keyed specs and of contiguous sub-lists — the chunk
// keys a fleet journals are exactly such sub-lists. Caches, journals and
// clients hold these keys, so any change to the digest is a change to the
// wire; only a deliberate format change rewrites it, with -update.
func TestGoldenSpecKeys(t *testing.T) {
	cases := keyCorpus(t)
	h := sha256.New()
	var keyed []spec.ScenarioSpec
	for i, c := range cases {
		k, err := SpecKey(c.sp)
		if (err != nil) != c.wantErr {
			t.Fatalf("%s: SpecKey error %v, want error %v", c.name, err, c.wantErr)
		}
		if err != nil {
			fmt.Fprintf(h, "%d %s error\n", i, c.name)
			continue
		}
		fmt.Fprintf(h, "%d %s %s\n", i, c.name, k)
		keyed = append(keyed, c.sp)
	}
	n := len(keyed)
	for _, r := range [][2]int{{0, n}, {0, 0}, {0, 1}, {0, 12}, {5, 17}, {n / 2, n/2 + 12}, {n - 3, n}} {
		k, err := SweepSummaryKey(keyed[r[0]:r[1]])
		if err != nil {
			t.Fatalf("SweepSummaryKey[%d:%d]: %v", r[0], r[1], err)
		}
		fmt.Fprintf(h, "sweep %d:%d %s\n", r[0], r[1], k)
	}
	withBad := append([]spec.ScenarioSpec{keyed[0]}, cases[len(cases)-1].sp)
	if _, err := SweepSummaryKey(withBad); err == nil {
		t.Fatalf("SweepSummaryKey over a spec with no key succeeded")
	}

	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d specs, %d keyed", len(cases), n)
	if *updateKeys {
		if err := os.WriteFile(goldenKeysFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenKeysFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("golden key digest %s, pinned %s: some SpecKey or SweepSummaryKey changed", got, strings.TrimSpace(string(want)))
	}
}
