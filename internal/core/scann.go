package core

import (
	"fmt"

	"mawilab/internal/ca"
	"mawilab/internal/linalg"
)

// SCANN is the correspondence-analysis combination strategy of Merz (1999),
// the paper's retained combiner (§2.2.3). The binary votes of every
// configuration are coded into a complete-disjunctive table, reduced by
// correspondence analysis, and each community is classified by which of two
// unanimous reference points — "all configurations vote anomalous" vs "no
// configuration votes" — lies closer in the reduced space.
//
// Irrelevant configurations (those voting identically on every community)
// become constant columns, contribute no residual, and are automatically
// ignored — the property that lets SCANN sideline a detector flooding the
// graph with unrelated alarms.
type SCANN struct {
	// MaxDims caps the retained CA axes (0 = all meaningful axes).
	MaxDims int
}

// NewSCANN returns a SCANN strategy keeping all meaningful axes.
func NewSCANN() *SCANN { return &SCANN{} }

// Name implements Strategy.
func (s *SCANN) Name() string { return "SCANN" }

// Classify implements Strategy. It ignores the aggregated confidence table
// and works from the raw configuration votes, as the paper's SCANN does.
func (s *SCANN) Classify(r *Result, _ []DetectorScores) ([]Decision, error) {
	nc := len(r.Communities)
	if nc == 0 {
		return nil, nil
	}
	configs, _ := ConfigUniverse(r.Alarms)
	if len(configs) == 0 {
		return nil, fmt.Errorf("core: SCANN: no configurations present")
	}
	colOf := make(map[ConfigKey]int, len(configs))
	for i, k := range configs {
		colOf[k] = i
	}

	// Complete disjunctive table over the communities: two columns per
	// configuration (voted / did-not-vote). The reference points are NOT
	// part of the factorization — they are projected afterwards as
	// supplementary rows, per Merz. A configuration voting identically on
	// every community therefore yields constant columns with zero residual
	// and no influence on the space.
	table := linalg.NewMatrix(nc, 2*len(configs))
	for ci := range r.Communities {
		voted := make(map[int]bool)
		for _, ai := range r.Communities[ci].Alarms {
			voted[colOf[r.Alarms[ai].Key()]] = true
		}
		for col := range configs {
			if voted[col] {
				table.Set(ci, 2*col, 1)
			} else {
				table.Set(ci, 2*col+1, 1)
			}
		}
	}

	res, err := ca.Analyze(table, s.MaxDims)
	if err != nil {
		return nil, fmt.Errorf("core: SCANN: %w", err)
	}

	// Reference profiles: unanimous accept votes every configuration,
	// unanimous reject votes none.
	accRef := make([]float64, 2*len(configs))
	rejRef := make([]float64, 2*len(configs))
	for col := range configs {
		accRef[2*col] = 1
		rejRef[2*col+1] = 1
	}
	accPt := res.ProjectRow(accRef)
	rejPt := res.ProjectRow(rejRef)

	out := make([]Decision, nc)
	for ci := 0; ci < nc; ci++ {
		row := res.RowCoords.Row(ci)
		dacc := ca.Distance(row, accPt)
		drej := ca.Distance(row, rejPt)
		d := Decision{Accepted: dacc < drej}
		if dacc+drej > 0 {
			d.Score = drej / (dacc + drej)
		} else {
			// Degenerate space (all communities voted identically):
			// nothing separates the references; reject conservatively.
			d.Accepted = false
			d.Score = 0.5
		}
		d.RelDistance = relativeDistance(dacc, drej, d.Accepted)
		out[ci] = d
	}
	return out, nil
}

// relativeDistance implements the paper's (d_other/d_assigned) − 1: the
// distance to the opposite reference over the distance to the assigned
// one. It ranges [0, ∞), 0 meaning the community sits on the decision
// threshold. A community exactly on its reference point gets +Inf capped
// to a large sentinel so downstream PDFs stay finite.
func relativeDistance(dacc, drej float64, accepted bool) float64 {
	near, far := dacc, drej
	if !accepted {
		near, far = drej, dacc
	}
	if near == 0 {
		if far == 0 {
			return 0
		}
		return maxRelDistance
	}
	rd := far/near - 1
	if rd < 0 {
		rd = 0
	}
	if rd > maxRelDistance {
		rd = maxRelDistance
	}
	return rd
}

// maxRelDistance caps the relative distance so histograms over it stay
// finite; 1e6 is far beyond the paper's plotted range of [0, 10].
const maxRelDistance = 1e6
