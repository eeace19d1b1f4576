package agg

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"nochatter/internal/hist"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_summaries.txt from the current code")

const goldenSummaryFile = "testdata/golden_summaries.txt"

// goldenSummaries is the number of summaries in the golden corpus.
const goldenSummaries = 2000

// goldenStrings are the family and algorithm names the corpus draws: plain
// names, and every class of byte encoding/json writes apart — the
// HTML-sensitive <, > and &, quotes and backslashes, control bytes, DEL,
// invalid and truncated UTF-8, the line and paragraph separators, and
// multi-byte runes it copies as they are.
var goldenStrings = []string{
	"ring", "barbell", "complete", "known", "gossip+known", "",
	"<script>&amp;</script>", `say "hi"`, `back\slash`,
	"ctl\x00\x01\x08\x09\x0a\x0c\x0d\x1b\x1f\x7f",
	"bad\xff\xfeutf8", "trunc\xe2\x80", "\xc0\xaf overlong",
	"sep\u2028line\u2029para", "café ünïcödé", "\U0001F600 emoji",
}

// goldenInt draws an int64 from the edges the encoder must print exactly:
// small values, negatives, and values at or near the int64 limits.
func goldenInt(r *rand.Rand) int64 {
	switch r.IntN(6) {
	case 0:
		return r.Int64N(16)
	case 1:
		return r.Int64N(1 << 40)
	case 2:
		return -r.Int64N(1 << 20)
	case 3:
		return math.MaxInt64 - r.Int64N(4)
	case 4:
		return math.MinInt64 + r.Int64N(4)
	default:
		return r.Int64()
	}
}

// goldenValue draws one observation: small values, values at histogram
// bucket bounds, values near 2^63, and negatives (which Observe clamps).
func goldenValue(r *rand.Rand) int64 {
	switch r.IntN(5) {
	case 0:
		return r.Int64N(16)
	case 1:
		return r.Int64N(1 << 20)
	case 2:
		return int64(1)<<r.IntN(63) + r.Int64N(3) - 1
	case 3:
		return math.MaxInt64 - r.Int64N(1024)
	default:
		return -r.Int64N(5)
	}
}

// goldenDist draws a Dist: empty, a few observations, a sum saturated at
// MaxInt64, or a count grown past 2^20 by merging the Dist into itself —
// with mostly zeros behind it, so the mean prints with an exponent.
func goldenDist(r *rand.Rand) hist.Dist {
	var d hist.Dist
	switch r.IntN(6) {
	case 0:
	case 1:
		for range 2 + r.IntN(4) {
			d.Observe(math.MaxInt64 - r.Int64N(8))
		}
	case 2:
		d.Observe(0)
		for range 20 + r.IntN(40) {
			d.Merge(d)
		}
		d.Observe(goldenValue(r))
	case 3:
		for range 1 + r.IntN(3) {
			d.Observe(goldenValue(r))
		}
		for range 20 + r.IntN(40) {
			d.Merge(d)
		}
	default:
		for range 1 + r.IntN(12) {
			d.Observe(goldenValue(r))
		}
	}
	return d
}

func goldenCell(r *rand.Rand) Cell {
	return Cell{
		Runs: goldenInt(r), Errors: goldenInt(r), Gathered: goldenInt(r),
		Rounds: goldenDist(r), Stepped: goldenDist(r), Moves: goldenDist(r), Wall: goldenDist(r),
	}
}

// goldenSummary draws summary i of the corpus. The first ones are the
// edge cases: a zero Summary, an empty NewSummary, and a total without
// groups; after that a quarter carry no groups.
func goldenSummary(r *rand.Rand, i int) *Summary {
	switch i {
	case 0:
		return &Summary{}
	case 1:
		return NewSummary()
	case 2:
		return &Summary{Total: goldenCell(r)}
	}
	s := NewSummary()
	if r.IntN(8) == 0 {
		s = &Summary{} // a nil group map
	}
	s.Total = goldenCell(r)
	if r.IntN(4) == 0 {
		return s
	}
	for range 1 + r.IntN(8) {
		k := Key{
			Family: goldenStrings[r.IntN(len(goldenStrings))],
			N:      int(goldenInt(r)),
			K:      r.IntN(5),
			Algo:   goldenStrings[r.IntN(len(goldenStrings))],
		}
		if r.IntN(3) == 0 {
			k.N = r.IntN(4) // collide with earlier keys now and then
		}
		c := goldenCell(r)
		s.cell(k).merge(&c)
	}
	return s
}

// TestGoldenSummaryEncoding pins the bytes of the summary wire form. It
// hashes three encodings of every summary in a seeded corpus of 2,000 —
// MarshalJSON, CanonicalJSON, and encoding/json's output for a struct
// embedding *Summary (the promoted MarshalJSON, compacted and checked by
// encoding/json) — plus a SummaryResponse-shaped envelope holding it, and
// compares the SHA-256 with testdata/golden_summaries.txt. Workers,
// journals and clients exchange these bytes, and the coordinator's merged
// result must equal a local fold byte for byte, so an encoder change must
// leave this digest unchanged; -update rewrites it for a change meant to
// alter the wire form. With -v the per-encoding digests are logged.
func TestGoldenSummaryEncoding(t *testing.T) {
	type embedded struct{ *Summary }
	type envelope struct {
		JobID   string   `json:"job_id"`
		Summary *Summary `json:"summary"`
	}
	// The corpus must reach every case the encoder writes apart; seen
	// records which of these appear in some MarshalJSON encoding.
	mustSee := []string{
		`e-`, `\ufffd`, `\u2028`, `\u003c`, `\u0026`, `\"`, `\\`, `\n`, `\u0000`, "\x7f", "é",
		`"sum":9223372036854775807`, `"n":-9223372036854775808`, `"buckets":[`, `"groups":[`, `{"total":{"runs":0,`,
	}
	seen := map[string]bool{}
	r := rand.New(rand.NewPCG(2406, 2844))
	h := sha256.New()
	parts := map[string]hash.Hash{}
	write := func(part string, buf []byte, err error) {
		if parts[part] == nil {
			parts[part] = sha256.New()
		}
		line := string(buf)
		if err != nil {
			line = "error: " + err.Error()
		}
		for _, w := range []hash.Hash{h, parts[part]} {
			w.Write([]byte(part + " " + line + "\n"))
		}
	}
	for i := range goldenSummaries {
		s := goldenSummary(r, i)
		buf, err := s.MarshalJSON()
		write("marshal", buf, err)
		for _, m := range mustSee {
			seen[m] = seen[m] || strings.Contains(string(buf), m)
		}
		buf, err = s.CanonicalJSON()
		write("canonical", buf, err)
		buf, err = json.Marshal(embedded{s})
		write("embedded", buf, err)
		env := envelope{JobID: goldenStrings[i%len(goldenStrings)], Summary: s}
		if i%7 == 0 {
			env.Summary = nil
		}
		buf, err = json.Marshal(env)
		write("envelope", buf, err)
	}
	for _, m := range mustSee {
		if !seen[m] {
			t.Errorf("no summary in the corpus encodes to %q", m)
		}
	}
	for _, part := range []string{"marshal", "canonical", "embedded", "envelope"} {
		t.Logf("%-9s %x", part, parts[part].Sum(nil))
	}
	got := hex.EncodeToString(h.Sum(nil))
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSummaryFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenSummaryFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("golden summary digest %s, pinned %s: the summary wire form changed "+
			"(run with -v at both commits and compare the per-encoding digests)", got, strings.TrimSpace(string(want)))
	}
}
