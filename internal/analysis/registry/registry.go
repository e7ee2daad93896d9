// Package registry is the single source of truth for which analyzers
// mawilint runs and which packages each one skips. cmd/mawilint, the
// repo-clean test and the driver tests all consume this list, so adding
// an analyzer here enrolls it everywhere at once.
package registry

import (
	"mawilab/internal/analysis"
	"mawilab/internal/analysis/baregoroutine"
	"mawilab/internal/analysis/ctxflow"
	"mawilab/internal/analysis/driver"
	"mawilab/internal/analysis/floatorder"
	"mawilab/internal/analysis/maprange"
	"mawilab/internal/analysis/stdoutguard"
	"mawilab/internal/analysis/wallclock"
)

// Analyzers returns the full mawilint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		baregoroutine.Analyzer,
		ctxflow.Analyzer,
		floatorder.Analyzer,
		maprange.Analyzer,
		stdoutguard.Analyzer,
		wallclock.Analyzer,
	}
}

// DefaultConfig is the repo's determinism-contract policy.
//
// wallclock treats the whole module as deterministic by default and
// exempts the layers whose job is interfacing with the real world: the
// serving daemon (request timestamps, job latencies), the eval harness
// (progress timing), and the mains/examples. Everything else — trace,
// core, detectors, graphx, simgraph, mawigen, heuristics, apriori,
// sketch, stats, linalg, pcap, ca, parallel and the root pipeline —
// must be a pure function of its inputs. The wire encoders of
// internal/serve/v1 sit under the serve exemption; the golden fixtures pin
// their bytes.
//
// baregoroutine exempts only internal/parallel, the package that owns
// fan-out. ctxflow additionally skips main packages (where root contexts
// belong) via the analyzer itself; the cmd/examples entries here keep the
// redundant-directive check quiet for those trees.
func DefaultConfig() driver.Config {
	return driver.Config{Exempt: map[string][]string{
		"wallclock": {
			"mawilab/internal/serve",
			"mawilab/internal/eval",
			"mawilab/cmd",
			"mawilab/examples",
		},
		"baregoroutine": {
			"mawilab/internal/parallel",
		},
		"ctxflow": {
			"mawilab/cmd",
			"mawilab/examples",
		},
	}}
}
