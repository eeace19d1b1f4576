package service

import (
	"encoding/json"
	"testing"

	"nochatter/internal/spec"
)

// FuzzCanonicalSpec checks the one-pass encoder against its definition:
// any bytes spec.Parse accepts must encode through CanonicalSpec to the
// bytes of the whole-spec round trip, or fail alike. Seeded with the JSON
// of the golden key corpus.
func FuzzCanonicalSpec(f *testing.F) {
	for _, c := range keyCorpus(f) {
		if raw, err := json.Marshal(c.sp); err == nil {
			f.Add(raw)
		}
	}
	f.Add([]byte(`{"graph":{"family":"gnp","p":1e-7},"agents":[{"label":1,"algorithm":{"name":"x","params":{"a":[1.0,{"b":"<\u00ff>"}],"c":-0}}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := spec.Parse(data)
		if err != nil {
			return
		}
		checkAgainstReference(t, "fuzzed spec", sp)
	})
}

// FuzzParseSweepDef checks the sweep-definition pipeline end to end: parsing
// never panics, and any accepted definition survives a marshal/reparse round
// trip with every expanded spec mapping to the same content address
// (SpecKey). Cluster sharding splits sweeps by re-serializing definitions,
// so a lossy round trip would silently run different scenarios.
func FuzzParseSweepDef(f *testing.F) {
	f.Add([]byte(`{"families":["ring","path"],"sizes":[6,8,10,12],"teams":[{"labels":[1,2]}],"wakes":[[0,0],[0,7]]}`))
	f.Add([]byte(`{"families":["ring"],"sizes":[5],"team_sizes":[2,3],"max_rounds":40}`))
	f.Add([]byte(`{"name":"g-{family}-{n}","graphs":[{"family":"grid","n":9}],"teams":[{"labels":[1,2],"starts":[0,4]}]}`))
	f.Add([]byte(`{"specs":[{"graph":{"family":"ring","n":6},"agents":[{"label":1,"start":0},{"label":2,"start":3}]}]}`))
	f.Add([]byte(`{"families":["ring"],"sizes":[4,5],"teams":[{"labels":[1,2]}],"zip":true}`))
	f.Add([]byte(`{"graphs":[{"family":"barbell","n":4,"tail":-1}],"teams":[{"labels":[1,2]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := spec.ParseSweepDef(data)
		if err != nil {
			return // rejected input; the property is "no panic"
		}
		if tooBigToExpand(d) {
			return
		}
		specs, err := d.Specs()
		if err != nil {
			return // invalid axes; rejection is fine, panics are not
		}

		out, err := d.MarshalIndentJSON()
		if err != nil {
			t.Fatalf("accepted definition does not marshal: %v", err)
		}
		d2, err := spec.ParseSweepDef(out)
		if err != nil {
			t.Fatalf("marshaled definition does not reparse: %v\n%s", err, out)
		}
		specs2, err := d2.Specs()
		if err != nil {
			t.Fatalf("reparsed definition does not expand: %v\n%s", err, out)
		}
		if len(specs) != len(specs2) {
			t.Fatalf("round trip changed spec count: %d -> %d\n%s", len(specs), len(specs2), out)
		}
		for i := range specs {
			k1, err := SpecKey(specs[i])
			if err != nil {
				t.Fatalf("spec %d has no key: %v", i, err)
			}
			k2, err := SpecKey(specs2[i])
			if err != nil {
				t.Fatalf("round-tripped spec %d has no key: %v", i, err)
			}
			if k1 != k2 {
				t.Fatalf("spec %d changed content address across the round trip: %s != %s\n%s", i, k1, k2, out)
			}
		}
	})
}

// tooBigToExpand bounds fuzz inputs before expansion: axis expansion builds
// real graphs (SpreadStarts), so unbounded sizes or products would turn the
// fuzzer into a memory stress test instead of a correctness probe.
func tooBigToExpand(d spec.SweepDef) bool {
	const (
		maxAxis    = 64
		maxProduct = 4096
		maxNodes   = 4096
		maxAgents  = 1024
	)
	axes := [][]int{d.Sizes, d.TeamSizes}
	for _, axis := range axes {
		for _, v := range axis {
			if v > maxNodes || v < -maxNodes {
				return true
			}
		}
	}
	for _, gs := range d.Graphs {
		if gs.N > maxNodes || gs.N < -maxNodes {
			return true
		}
	}
	for _, team := range d.Teams {
		if len(team.Labels) > maxAgents || len(team.Starts) > maxAgents || len(team.Wakes) > maxAgents {
			return true
		}
	}
	for _, w := range d.Wakes {
		if len(w) > maxAgents {
			return true
		}
	}
	lens := []int{len(d.Explicit), len(d.Graphs), len(d.Families), len(d.Sizes),
		len(d.Teams), len(d.TeamSizes), len(d.Wakes), len(d.Algorithms)}
	product := 1
	for _, n := range lens {
		if n > maxAxis {
			return true
		}
		if n > 1 {
			product *= n
		}
		if product > maxProduct {
			return true
		}
	}
	return false
}
