// Package eval implements the paper's evaluation machinery (§4): the attack
// ratio, the gain/cost quadrants of Table 2, and one harness per figure of
// the evaluation section, each returning the series the paper plots so that
// cmd/experiments and the benches can regenerate every result.
package eval

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mawilab"
	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/heuristics"
	"mawilab/internal/mawigen"
	"mawilab/internal/parallel"
)

// Runner wires the archive, the shipped labeling pipeline and the
// combination strategies into a per-day evaluation.
type Runner struct {
	Archive *mawigen.Archive
	// Pipeline labels every day — the same mawilab.Pipeline the CLI and
	// mawilabd run. Its Detectors, Estimator and RuleSupport configure the
	// evaluation; its Strategy and Workers are set per day from Strategies
	// and Workers.
	Pipeline *mawilab.Pipeline
	// Strategies are the combiners each day is classified under. The
	// pipeline labels the day with the last one, so Reports carry its
	// labels; every other strategy classifies the same communities. An
	// empty list is an error.
	Strategies []core.Strategy
	// Workers bounds the evaluation's concurrency: Days shards the
	// archive across a day-level worker pool of this size, and a direct
	// Day call fans its detector runs and community labeling out over the
	// same bound. 0 or 1 is the sequential reference path; results are
	// identical at every setting.
	Workers int
}

// NewRunner returns a runner with the paper's retained configuration:
// the four-detector ensemble must be supplied by the caller (usually
// suite.Standard()).
func NewRunner(archive *mawigen.Archive, dets []detectors.Detector) *Runner {
	p := mawilab.NewPipeline()
	p.Detectors = dets
	return &Runner{
		Archive:  archive,
		Pipeline: p,
		Strategies: []core.Strategy{
			core.NewAverage(), core.NewMinimum(), core.NewMaximum(), core.NewSCANN(),
		},
	}
}

// errNoStrategies rejects a Runner with nothing to label a day under.
var errNoStrategies = errors.New("eval: Runner.Strategies is empty")

// DayResult is everything the evaluation needs from one analyzed day.
type DayResult struct {
	Date time.Time
	// Result is the similarity-estimator output.
	Result *core.Result
	// Totals maps detector → number of configurations.
	Totals map[string]int
	// Decisions holds each strategy's verdicts, keyed by strategy name.
	Decisions map[string][]core.Decision
	// Reports are the labeled communities under the *last* strategy in
	// Strategies (SCANN by default), carrying rules and heuristics.
	Reports []core.CommunityReport
	// Truth is the generator's ground truth for the day.
	Truth []mawigen.Event
}

// Day runs the full pipeline for one archive day, fanning the detector
// runs and community labeling out over r.Workers goroutines.
func (r *Runner) Day(date time.Time) (*DayResult, error) {
	return r.day(context.Background(), date, r.workers())
}

// Days analyzes many archive days, sharded across a day-level worker pool
// of r.Workers goroutines; each day then runs its own pipeline sequentially
// (the day-level fan-out already saturates the pool). Results are returned
// in date order and are identical to looping Day sequentially.
func (r *Runner) Days(ctx context.Context, dates []time.Time) ([]*DayResult, error) {
	return parallel.Map(ctx, len(dates), r.workers(), func(ctx context.Context, i int) (*DayResult, error) {
		return r.day(ctx, dates[i], 1)
	})
}

// workers returns the effective worker count (>= 1).
func (r *Runner) workers() int {
	if r.Workers <= 0 {
		return 1
	}
	return r.Workers
}

// day generates one archive day and labels it with r.Pipeline under the
// last strategy at the given stage worker bound, then classifies the same
// communities under every other strategy.
func (r *Runner) day(ctx context.Context, date time.Time, workers int) (*DayResult, error) {
	if len(r.Strategies) == 0 {
		return nil, errNoStrategies
	}
	gen := r.Archive.Day(date)
	last := len(r.Strategies) - 1
	p := *r.Pipeline
	p.Strategy = r.Strategies[last]
	p.Workers = workers
	l, err := p.RunContext(ctx, gen.Trace)
	if err != nil {
		return nil, fmt.Errorf("eval: %s: %w", date.Format("2006-01-02"), err)
	}
	totals, err := detectors.Totals(p.Detectors)
	if err != nil {
		return nil, err
	}
	out := &DayResult{
		Date:      date,
		Result:    l.Result,
		Totals:    totals,
		Decisions: make(map[string][]core.Decision, len(r.Strategies)),
		Reports:   l.Reports,
		Truth:     gen.Truth,
	}
	conf := l.Result.Confidences(totals)
	for _, s := range r.Strategies[:last] {
		dec, err := s.Classify(l.Result, conf)
		if err != nil {
			return nil, fmt.Errorf("eval: %s on %s: %w", s.Name(), date.Format("2006-01-02"), err)
		}
		// Decisions are indexed by community everywhere downstream
		// (RunRatios, Fig8-10, ComputeGainCost); a strategy returning a
		// short or stale slice must fail here, not panic later.
		if len(dec) != len(l.Result.Communities) {
			return nil, fmt.Errorf("eval: %s on %s: %d decisions for %d communities",
				s.Name(), date.Format("2006-01-02"), len(dec), len(l.Result.Communities))
		}
		out.Decisions[s.Name()] = dec
	}
	out.Decisions[r.Strategies[last].Name()] = l.Decisions
	return out, nil
}

// AttackRatio computes the paper's §4.2.1 metric over a subset of
// communities: the fraction whose Table 1 class is Attack. The subset is
// chosen by the keep predicate (e.g. "accepted under strategy X").
func AttackRatio(reports []core.CommunityReport, keep func(i int) bool) float64 {
	total, attack := 0, 0
	for i := range reports {
		if !keep(i) {
			continue
		}
		total++
		if reports[i].Class == heuristics.Attack {
			attack++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(attack) / float64(total)
}

// GainCost is Table 2: the benefit/loss quadrants of a strategy's
// decisions. Gain counts communities the strategy got right under the
// Table 1 reading (accepted Attack, rejected non-Attack); Cost counts the
// mistakes.
type GainCost struct {
	GainAcc int // accepted and labeled Attack
	CostAcc int // accepted but labeled Special/Unknown
	GainRej int // rejected and labeled Special/Unknown
	CostRej int // rejected but labeled Attack
}

// Add accumulates another table.
func (g *GainCost) Add(o GainCost) {
	g.GainAcc += o.GainAcc
	g.CostAcc += o.CostAcc
	g.GainRej += o.GainRej
	g.CostRej += o.CostRej
}

// ComputeGainCost tallies Table 2 for one day under the given decisions.
// The optional detector filter restricts the count to communities
// containing at least one alarm from that detector ("" = all). The
// decisions must be the day's own — one per report; a stale slice from
// another day's strategy run is rejected instead of panicking mid-tally.
func ComputeGainCost(day *DayResult, decisions []core.Decision, detector string) (GainCost, error) {
	var gc GainCost
	if err := checkDecisions(day, decisions); err != nil {
		return gc, err
	}
	for i := range day.Reports {
		if detector != "" && !detectedBy(day.Result, i, detector) {
			continue
		}
		attack := day.Reports[i].Class == heuristics.Attack
		if decisions[i].Accepted {
			if attack {
				gc.GainAcc++
			} else {
				gc.CostAcc++
			}
		} else {
			if attack {
				gc.CostRej++
			} else {
				gc.GainRej++
			}
		}
	}
	return gc, nil
}

// checkDecisions guards the report-indexed tallies (ComputeGainCost,
// Fig9, Fig10) against a decisions slice that does not belong to the day —
// e.g. a stale slice from another day's strategy run.
func checkDecisions(day *DayResult, decisions []core.Decision) error {
	if len(decisions) != len(day.Reports) {
		return fmt.Errorf("eval: %d decisions for %d reports on %s",
			len(decisions), len(day.Reports), day.Date.Format("2006-01-02"))
	}
	return nil
}

// detectedBy reports whether community ci contains an alarm from detector.
func detectedBy(res *core.Result, ci int, detector string) bool {
	for _, ai := range res.Communities[ci].Alarms {
		if res.Alarms[ai].Detector == detector {
			return true
		}
	}
	return false
}
