package analysis

import "strings"

// Package classification: which rules apply where. The classifications
// are by import path so that analyzer testdata can opt into a rule set by
// mirroring the real layout (testdata/src/nochatter/internal/sim/... is
// determinism-critical exactly like the package it mirrors).

// criticalPrefixes are the packages whose computations feed content
// addresses, canonical encodings, or cluster merges: everything they
// produce must be a pure, bit-stable function of the spec data
// (DESIGN.md §11). detrand enforces its rules only here.
var criticalPrefixes = []string{
	"nochatter/internal/sim",
	"nochatter/internal/agg",
	"nochatter/internal/hist",
	"nochatter/internal/spec",
	"nochatter/internal/graph",
	"nochatter/internal/cluster",
	"nochatter/internal/sched",
}

// wirePrefixes are the packages whose structs cross the wire or feed
// canonical JSON: wiretags checks struct declarations here. internal/sim
// is included because RunResult and its children are served and hashed
// verbatim by the service.
var wirePrefixes = []string{
	"nochatter/internal/service",
	"nochatter/internal/spec",
	"nochatter/internal/agg",
	"nochatter/internal/hist",
	"nochatter/internal/cluster",
	"nochatter/internal/sim",
	"nochatter/internal/sched",
}

// obsPrefixes are the observability packages, whose registries and tracers
// accept caller-supplied callbacks (gauge functions, object snapshots).
// lockscope additionally forbids calling any function-typed value while a
// lock is held here: a callback is free to take subsystem locks of its own
// — or to re-enter the registry — so invoking one inside a critical
// section is a lock-order inversion waiting for its second participant.
var obsPrefixes = []string{
	"nochatter/internal/obs",
}

// httpClientPrefixes are the packages that issue HTTP requests on behalf
// of jobs with lifecycles — where a context-less request can outlive its
// job and burn fleet capacity. lockscope requires context-threaded
// requests here.
var httpClientPrefixes = []string{
	"nochatter/internal/cluster",
	"nochatter/internal/service",
}

func hasAnyPrefix(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// DeterminismCritical reports whether the package must be free of
// wall-clock and ambient-randomness reads.
func DeterminismCritical(path string) bool { return hasAnyPrefix(path, criticalPrefixes) }

// WirePackage reports whether the package's JSON-visible structs are held
// to the wiretags rules.
func WirePackage(path string) bool { return hasAnyPrefix(path, wirePrefixes) }

// HTTPClientPackage reports whether the package's HTTP requests must be
// context-threaded.
func HTTPClientPackage(path string) bool { return hasAnyPrefix(path, httpClientPrefixes) }

// ObsPackage reports whether the package is held to the no-callback-under-
// lock rule.
func ObsPackage(path string) bool { return hasAnyPrefix(path, obsPrefixes) }
