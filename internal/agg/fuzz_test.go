package agg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

// nestedDecode is the summary decoder before the one-pass codec, kept as
// FuzzSummaryDecode's oracle: encoding/json decodes the document into
// Cells and Groups, whose metric fields are hist.Dists, so it hands every
// Dist's bytes to hist.Dist.UnmarshalJSON, which decodes them again.
func nestedDecode(data []byte) (*Summary, error) {
	var w struct {
		Total  Cell    `json:"total"`
		Groups []Group `json:"groups"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	s := &Summary{Total: w.Total, groups: make(map[Key]*Cell, len(w.Groups))}
	for _, g := range w.Groups {
		if _, dup := s.groups[g.Key]; dup {
			return nil, fmt.Errorf("agg: duplicate summary group %+v", g.Key)
		}
		cell := g.Cell
		s.groups[g.Key] = &cell
	}
	return s, nil
}

// repeatsKey reports whether some object in the JSON document data lists
// one key twice, as encoding/json matches keys to fields: ignoring case.
// encoding/json decodes a repeated member over the earlier one's value.
// The one-pass decoder does that for a Dist too, where the nested decoder
// started each repeat from an empty Dist, so the two may differ on such a
// document. No encoder writes one.
func repeatsKey(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	type object struct {
		keys []string
		key  bool // the next token is a key or the closing brace
	}
	var open []*object // nil for an array
	valueDone := func() {
		if n := len(open); n > 0 && open[n-1] != nil {
			open[n-1].key = true
		}
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if n := len(open); n > 0 && open[n-1] != nil && open[n-1].key {
			if k, ok := tok.(string); ok {
				top := open[n-1]
				for _, seen := range top.keys {
					if strings.EqualFold(seen, k) {
						return true
					}
				}
				top.keys = append(top.keys, k)
				top.key = false
				continue
			}
		}
		switch tok {
		case json.Delim('{'):
			open = append(open, &object{key: true})
		case json.Delim('['):
			open = append(open, nil)
		case json.Delim('}'), json.Delim(']'):
			open = open[:len(open)-1]
			valueDone()
		default:
			valueDone()
		}
	}
}

// FuzzSummaryDecode checks the one-pass Summary.UnmarshalJSON against the
// nested decoder it replaced (nestedDecode) on arbitrary bytes: both
// accept or both reject, and summaries both accept encode to the same
// MarshalJSON and CanonicalJSON bytes. A document that repeats a key in
// one object (repeatsKey) is exempt from the comparison. On every input,
// a summary the one-pass decoder accepts must encode to a document that
// both decoders accept and that decodes back to the same bytes.
func FuzzSummaryDecode(f *testing.F) {
	// Real summaries: a fleet chunk's, and the golden corpus's edge cases
	// (empty, no groups, saturated sums, escaped names). Larger documents
	// make each new input's minimization outlast a short fuzz run.
	doc, err := fleetSummary(f, 1).MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)
	r := rand.New(rand.NewPCG(2406, 2844))
	for i := range 12 {
		if doc, err = goldenSummary(r, i).MarshalJSON(); err != nil {
			f.Fatal(err)
		}
		if len(doc) <= 2048 {
			f.Add(doc)
		}
	}
	// Bucket totals that wrap around int64, a duplicate group, a repeated
	// key, and the degenerate documents.
	for _, doc := range []string{
		`{"total":{"runs":5,"rounds":{"count":5,"sum":10,"min":1,"max":3,"buckets":[0,9223372036854775807,9223372036854775807,7]}}}`,
		`{"total":{},"groups":[{"family":"ring","n":4,"k":2,"algo":"known","moves":{"count":0,"buckets":[9223372036854775807,9223372036854775807,2]}}]}`,
		`{"total":{},"groups":[{"family":"ring","n":4},{"family":"ring","n":4}]}`,
		`{"total":{"rounds":{"count":1,"sum":1,"min":1,"max":1,"buckets":[0,1]},"ROUNDS":{"count":0}}}`,
		`{"Total":{"Runs":1,"wall_NS":null},"groups":null,"extra":[1,{"a":2}]}`,
		`null`, `{}`, `[]`, `{"groups":[null]}`, `{"total":{"moves":"x"}}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Summary
		gotErr := got.UnmarshalJSON(data)
		want, wantErr := nestedDecode(data)
		if !repeatsKey(data) {
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("one-pass decode error %v, nested decode error %v, for %q", gotErr, wantErr, data)
			}
			if gotErr == nil {
				for _, enc := range []func(*Summary) ([]byte, error){(*Summary).MarshalJSON, (*Summary).CanonicalJSON} {
					a, _ := enc(&got)
					b, _ := enc(want)
					if !bytes.Equal(a, b) {
						t.Fatalf("decoded summaries encode apart for %q:\none-pass %s\nnested   %s", data, a, b)
					}
				}
			}
		}
		if gotErr != nil {
			return
		}
		doc, _ := got.MarshalJSON()
		var back Summary
		if err := back.UnmarshalJSON(doc); err != nil {
			t.Fatalf("re-encoding of %q does not decode: %v\n%s", data, err, doc)
		}
		if _, err := nestedDecode(doc); err != nil {
			t.Fatalf("nested decoder rejects the re-encoding of %q: %v\n%s", data, err, doc)
		}
		if again, _ := back.MarshalJSON(); !bytes.Equal(again, doc) {
			t.Fatalf("decode and encode is no fixed point for %q:\n%s\n%s", data, doc, again)
		}
	})
}
