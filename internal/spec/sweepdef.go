package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// SweepDef is a sweep as data: axes of graphs, teams, wake schedules and
// algorithms whose product Specs expands into scenario specs, plus an
// optional explicit spec list. It is the one sweep type: experiments and
// examples write it as a Go literal, POST /v1/sweeps and gathersim -sweep
// read it as JSON, and fleet chunks travel as SweepDef{Explicit: …}, so a
// whole sweep can be saved, submitted and replayed.
//
//	specs, err := spec.SweepDef{
//		Families: []string{"ring", "gnp"},
//		Sizes:    []int{8, 16, 32},
//		Teams:    []spec.Team{{Labels: []int{1, 2}}},
//		Name:     "sweep-{family}-n{n}-k{k}",
//	}.Specs()
type SweepDef struct {
	// Name is the per-spec name template. The placeholders {i}, {family},
	// {n}, {k}, {algo} and {wake} expand per generated spec ({i} counts
	// the axis specs from 0; {wake} is the index into Wakes, 0 without
	// one). It applies to axis-generated specs only; Explicit specs keep
	// their own.
	Name string `json:"name,omitempty"`
	// Explicit lists fully-built scenario specs, emitted before any axis
	// expansion. It is how an arbitrary spec list — one the axes cannot
	// express, such as a contiguous shard of another sweep's expansion
	// (internal/cluster) — travels as a sweep document.
	Explicit []ScenarioSpec `json:"specs,omitempty"`
	// Graphs lists explicit graph specs; Families × Sizes appends its
	// product after them.
	Graphs   []GraphSpec `json:"graphs,omitempty"`
	Families []string    `json:"families,omitempty"`
	Sizes    []int       `json:"sizes,omitempty"`
	// Teams lists explicit teams; TeamSizes appends canonical k-agent
	// teams (labels 1..k at nodes 0..k-1) after them.
	Teams     []Team `json:"teams,omitempty"`
	TeamSizes []int  `json:"team_sizes,omitempty"`
	// Wakes is the wake-schedule axis: each schedule overrides the team's
	// own Wakes (its length must match the team size; nil keeps the
	// team's).
	Wakes [][]int `json:"wakes,omitempty"`
	// Algorithms is the algorithm axis; every agent of a generated spec
	// runs the same algorithm, and empty selects Known. Per-agent
	// algorithms (gossip messages) are a property of hand-built specs.
	Algorithms []AlgorithmSpec `json:"algorithms,omitempty"`
	// MaxRounds is the round budget of every generated spec.
	MaxRounds int `json:"max_rounds,omitempty"`
	// Zip pairs the graph and team axes index-wise (they must have equal
	// lengths) instead of multiplying them.
	Zip bool `json:"zip,omitempty"`
}

// MarshalIndentJSON renders the definition as indented JSON.
func (d SweepDef) MarshalIndentJSON() ([]byte, error) {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// ParseSweepDef decodes a SweepDef from JSON with the same strictness as
// Parse: unknown fields and trailing content are rejected, and numbers
// decode as json.Number so 64-bit algorithm parameters keep full precision.
func ParseSweepDef(data []byte) (SweepDef, error) {
	var d SweepDef
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	dec.UseNumber()
	if err := dec.Decode(&d); err != nil {
		return SweepDef{}, fmt.Errorf("spec: parse sweep: %w", err)
	}
	if dec.More() {
		return SweepDef{}, fmt.Errorf("spec: parse sweep: trailing content after the sweep definition")
	}
	return d, nil
}
