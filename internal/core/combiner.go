package core

import (
	"fmt"
	"math"
	"sort"
)

// DetectorScores maps detector name → confidence score φ_d(c) ∈ [0,1] for
// one community: the fraction of the detector's configurations that report
// at least one alarm inside the community (§2.2.2).
type DetectorScores map[string]float64

// Confidences computes the confidence score of every detector for every
// community. totals gives the number of configurations per detector (T_d);
// detectors absent from totals are skipped. Detectors present in totals but
// silent on a community score 0.
func (r *Result) Confidences(totals map[string]int) []DetectorScores {
	out := make([]DetectorScores, len(r.Communities))
	for ci := range r.Communities {
		c := &r.Communities[ci]
		votes := make(map[ConfigKey]struct{})
		for _, ai := range c.Alarms {
			votes[r.Alarms[ai].Key()] = struct{}{}
		}
		perDet := make(map[string]int)
		for k := range votes {
			perDet[k.Detector]++
		}
		scores := make(DetectorScores, len(totals))
		for det, total := range totals {
			if total <= 0 {
				continue
			}
			scores[det] = float64(perDet[det]) / float64(total)
		}
		out[ci] = scores
	}
	return out
}

// Decision is the combiner's verdict on one community.
type Decision struct {
	// Accepted marks the community as anomalous traffic.
	Accepted bool
	// Score is the aggregate the strategy thresholded: µ(c) for
	// average/minimum/maximum, and d_rej/(d_acc+d_rej) for SCANN.
	Score float64
	// RelDistance is SCANN's confidence in its verdict: the distance to
	// the opposite reference over the distance to the assigned reference,
	// minus one. Zero means "on the threshold"; it is always ≥ 0. The
	// aggregate strategies report |µ−0.5|·2 so the taxonomy stays usable.
	RelDistance float64
}

// Strategy classifies communities from the detectors' votes (§2.2.3).
type Strategy interface {
	// Name is the strategy's paper name.
	Name() string
	// Classify returns one decision per community of r. conf holds the
	// per-community confidence scores from Result.Confidences.
	Classify(r *Result, conf []DetectorScores) ([]Decision, error)
}

// aggregateStrategy implements average/minimum/maximum over confidence
// scores with the µ(c) > 0.5 acceptance rule.
type aggregateStrategy struct {
	name string
	agg  func(scores []float64) float64
}

// NewAverage returns the strategy that accepts a community when the mean
// confidence across detectors exceeds 0.5 — every detector weighted
// equally.
func NewAverage() Strategy {
	return &aggregateStrategy{name: "average", agg: func(s []float64) float64 {
		if len(s) == 0 {
			return 0
		}
		t := 0.0
		for _, x := range s {
			t += x
		}
		return t / float64(len(s))
	}}
}

// NewMinimum returns the pessimistic strategy: accept only when every
// detector supports the decision (µ = min φ).
func NewMinimum() Strategy {
	return &aggregateStrategy{name: "minimum", agg: func(s []float64) float64 {
		if len(s) == 0 {
			return 0
		}
		m := math.Inf(1)
		for _, x := range s {
			if x < m {
				m = x
			}
		}
		return m
	}}
}

// NewMaximum returns the optimistic strategy: accept when at least one
// detector strongly supports the decision (µ = max φ).
func NewMaximum() Strategy {
	return &aggregateStrategy{name: "maximum", agg: func(s []float64) float64 {
		if len(s) == 0 {
			return 0
		}
		m := math.Inf(-1)
		for _, x := range s {
			if x > m {
				m = x
			}
		}
		return m
	}}
}

func (s *aggregateStrategy) Name() string { return s.name }

func (s *aggregateStrategy) Classify(r *Result, conf []DetectorScores) ([]Decision, error) {
	if len(conf) != len(r.Communities) {
		return nil, fmt.Errorf("core: %s: confidence rows (%d) != communities (%d)", s.name, len(conf), len(r.Communities))
	}
	out := make([]Decision, len(conf))
	for i, scores := range conf {
		vals := make([]float64, 0, len(scores))
		for _, det := range sortedDetectors(scores) {
			vals = append(vals, scores[det])
		}
		mu := s.agg(vals)
		out[i] = Decision{
			Accepted:    mu > 0.5,
			Score:       mu,
			RelDistance: math.Abs(mu-0.5) * 2,
		}
	}
	return out, nil
}

// sortedDetectors returns the score keys in ascending name order, fixing
// the fold order of the aggregate strategies independently of map iteration.
func sortedDetectors(scores DetectorScores) []string {
	out := make([]string, 0, len(scores))
	for d := range scores {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
