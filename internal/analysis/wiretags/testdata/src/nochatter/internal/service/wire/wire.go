// Package wire is wiretags fixture data: wire-reachable structs with
// pinned, loose, and exempt encodings.
package wire

import "encoding/json"

// Tagged is fully pinned: no findings.
type Tagged struct {
	Name  string `json:"name"`
	Count int    `json:"count,omitempty"`
	state int    // unexported: invisible to encoding/json
}

// Partial mixes tagged and untagged exported fields.
type Partial struct {
	Key   string `json:"key"`
	Value int    // want "exported field Partial.Value has no json tag"
}

// Loose carries the wire-hostile field types.
type Loose struct {
	Data    any            `json:"data"`     // want "field Loose.Data is interface-typed"
	ByIndex map[int]string `json:"by_index"` // want "field Loose.ByIndex has non-string map keys"
}

// Options-style maps with string keys and any values are fine: the
// canonical encoder normalizes every value in them.
type Options struct {
	Params map[string]any `json:"params,omitempty"`
}

// scratch is not wire-reachable: untagged fields are fine here.
type scratch struct {
	Buf  []byte
	Hint string
}

// marshaled has no tags of its own but flows into json.Marshal below, so
// it is wire-reachable by call.
type marshaled struct {
	ID string // want "exported field marshaled.ID has no json tag"
}

// Encode seeds marshaled via the call above it.
func Encode(m marshaled) ([]byte, error) { return json.Marshal(m) }

// Inner is pulled into the wire set by Outer embedding it.
type Inner struct {
	Hidden string // want "exported field Inner.Hidden has no json tag"
}

// Outer embeds Inner — inlined by encoding/json, so the embedded field
// itself needs no tag.
type Outer struct {
	Inner
	Count int `json:"count"`
}

// Custom owns its encoding via MarshalJSON, so tag rules do not apply to
// it even when a tagged struct carries it.
type Custom struct {
	Raw []int
}

// MarshalJSON implements json.Marshaler.
func (c Custom) MarshalJSON() ([]byte, error) { return json.Marshal(c.Raw) }

// Carrier proves the custom-marshaler exemption survives closure.
type Carrier struct {
	Custom Custom `json:"custom"`
}

// Legacy keeps a deliberately untagged field under an annotation.
type Legacy struct {
	Kept string `json:"kept"`
	//lint:allow wiretags fixture: legacy wire name pinned by compatibility tests elsewhere
	Old string
}
