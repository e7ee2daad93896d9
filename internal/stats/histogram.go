// Package stats provides the statistical primitives the MAWILab pipeline is
// built on: Gamma-distribution fitting (the Gamma detector), empirical
// CDF/PDF series (every evaluation figure), descriptive statistics (the
// median and MAD PCA, KL and Gamma threshold against, by selection), the
// weighted smoothing used to render Fig. 4, and map-backed discrete
// histograms with Kullback-Leibler divergence — the KL detector's reference
// in its tests and examples/customdetector's feature; the detector itself
// counts in dense per-bin arrays (internal/detectors/klhist).
package stats

import (
	"math"
	"slices"
	"sort"
)

// Histogram is a discrete distribution over uint64 keys (hashed traffic
// features, port numbers, sketch bins...). The zero value is empty and ready
// to use.
type Histogram struct {
	counts map[uint64]float64
	total  float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[uint64]float64)}
}

// Add increments the bin for key by weight (typically 1 per packet).
func (h *Histogram) Add(key uint64, weight float64) {
	if h.counts == nil {
		h.counts = make(map[uint64]float64)
	}
	h.counts[key] += weight
	h.total += weight
}

// Entropy returns the Shannon entropy in bits.
func (h *Histogram) Entropy() float64 {
	if h.total == 0 {
		return 0
	}
	// Sum in ascending key order: float accumulation of p·log2(p) terms
	// is not associative, so map-iteration order would leak into the low
	// bits of the entropy from run to run.
	e := 0.0
	for _, k := range sortedBins(h.counts) {
		if c := h.counts[k]; c > 0 {
			p := c / h.total
			e -= p * math.Log2(p)
		}
	}
	return e
}

// sortedBins returns m's keys ascending — the canonical order for every
// inexact float accumulation over a histogram's support.
func sortedBins(m map[uint64]float64) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// KLDivergence returns D(h || q) in bits, computed over the union of the two
// supports with additive (Laplace) smoothing eps so that the divergence is
// finite even when supports differ — the situation that signals an anomaly
// to the KL-based detector (a brand-new port or host appearing).
func (h *Histogram) KLDivergence(q *Histogram, eps float64) float64 {
	if h.total == 0 || q.total == 0 {
		return 0
	}
	if eps <= 0 {
		eps = 1e-6
	}
	// The union support as a sorted slice: deterministic accumulation
	// order for the same reason as Entropy, and no map needed at all.
	support := make([]uint64, 0, len(h.counts)+len(q.counts))
	for k := range h.counts {
		support = append(support, k)
	}
	for k := range q.counts {
		support = append(support, k)
	}
	slices.Sort(support)
	support = slices.Compact(support)
	n := float64(len(support))
	d := 0.0
	for _, k := range support {
		p := (h.counts[k] + eps) / (h.total + eps*n)
		qq := (q.counts[k] + eps) / (q.total + eps*n)
		d += p * math.Log2(p/qq)
	}
	if d < 0 {
		d = 0 // guard tiny negative rounding
	}
	return d
}

// TopK returns the k heaviest bins as (key, weight) pairs, heaviest first.
// Ties break on the smaller key for determinism.
func (h *Histogram) TopK(k int) []struct {
	Key    uint64
	Weight float64
} {
	type kv struct {
		Key    uint64
		Weight float64
	}
	all := make([]kv, 0, len(h.counts))
	for key, w := range h.counts {
		all = append(all, kv{key, w})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Weight != all[j].Weight {
			return all[i].Weight > all[j].Weight
		}
		return all[i].Key < all[j].Key
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]struct {
		Key    uint64
		Weight float64
	}, k)
	for i := 0; i < k; i++ {
		out[i] = struct {
			Key    uint64
			Weight float64
		}{all[i].Key, all[i].Weight}
	}
	return out
}
