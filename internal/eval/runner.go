// Package eval implements the paper's evaluation machinery (§4): the attack
// ratio, the gain/cost quadrants of Table 2, and one fold per figure of the
// evaluation section. Runner.Days labels a set of archive days once; every
// figure then folds that day set into the series the paper plots, so that
// cmd/experiments and the benches can regenerate every result.
package eval

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"mawilab"
	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/heuristics"
	"mawilab/internal/mawigen"
	"mawilab/internal/parallel"
	"mawilab/internal/trace"
)

// Runner wires the archive, the shipped labeling pipeline and the
// combination strategies into a per-day evaluation.
type Runner struct {
	Archive *mawigen.Archive
	// Pipeline labels every day — the same mawilab.Pipeline the CLI and
	// mawilabd run. Its Detectors, Estimator and RuleSupport configure the
	// evaluation; its Strategy is set per day from Strategies, and each day
	// runs it sequentially.
	Pipeline *mawilab.Pipeline
	// Strategies are the combiners each day is classified under. The
	// pipeline labels the day with the last one, so Reports carry its
	// labels; every other strategy classifies the same communities. An
	// empty list is an error.
	Strategies []core.Strategy
	// Workers is how many days Days labels at once. 0 or 1 labels one day
	// at a time; results are identical at every setting.
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

// DayResult is what the evaluation keeps of one labeled day: its labels and
// a summary of each community's alarms. The index, alarms, traffic sets and
// graph that produced them are dropped when the day is labeled, so a
// multi-year day set costs kilobytes per day, not megabytes.
type DayResult struct {
	Date time.Time
	// Communities summarizes each community's alarms, aligned with Reports.
	Communities []CommunitySummary
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

// CommunitySummary is what the figures read of one community's alarms.
type CommunitySummary struct {
	// Alarms is the community's alarm count, its size; a size-1 community
	// is the paper's "single community".
	Alarms int
	// Detectors are the distinct detectors with an alarm in the community,
	// in the order of their first alarm.
	Detectors []string
}

// Days labels the archive days at dates, r.Workers days at a time, each
// day running the pipeline sequentially. It is the only code in this
// package that labels a day: every figure is a fold over the slice it
// returns. Results are in date order and identical at every worker count.
func (r *Runner) Days(ctx context.Context, dates []time.Time) ([]*DayResult, error) {
	return parallel.Map(ctx, len(dates), r.workers(), func(ctx context.Context, i int) (*DayResult, error) {
		return r.day(ctx, dates[i])
	})
}

// AtGranularity returns a copy of r whose pipeline reads traffic at g and is
// otherwise unchanged — the sweep of Fig. 3.
func (r *Runner) AtGranularity(g trace.Granularity) *Runner {
	p := *r.Pipeline
	p.Estimator.Granularity = g
	out := *r
	out.Pipeline = &p
	return &out
}

// workers returns the effective worker count (>= 1).
func (r *Runner) workers() int {
	if r.Workers <= 0 {
		return 1
	}
	return r.Workers
}

// day generates one archive day and labels it sequentially with r.Pipeline
// under the last strategy, then classifies the same communities under every
// other strategy and summarizes each community while the labeling is live.
func (r *Runner) day(ctx context.Context, date time.Time) (*DayResult, error) {
	if len(r.Strategies) == 0 {
		return nil, errNoStrategies
	}
	gen := r.Archive.Day(date)
	last := len(r.Strategies) - 1
	p := *r.Pipeline
	p.Strategy = r.Strategies[last]
	p.Workers = 1
	l, err := p.RunContext(ctx, gen.Trace)
	if err != nil {
		return nil, fmt.Errorf("eval: %s: %w", date.Format("2006-01-02"), err)
	}
	totals, err := detectors.Totals(p.Detectors)
	if err != nil {
		return nil, err
	}
	res := l.Result
	out := &DayResult{
		Date:        date,
		Communities: make([]CommunitySummary, len(res.Communities)),
		Totals:      totals,
		Decisions:   make(map[string][]core.Decision, len(r.Strategies)),
		Reports:     l.Reports,
		Truth:       gen.Truth,
	}
	for i := range res.Communities {
		c := &res.Communities[i]
		out.Communities[i] = CommunitySummary{Alarms: c.Size(), Detectors: res.DetectorsIn(c)}
	}
	conf := res.Confidences(totals)
	for _, s := range r.Strategies[:last] {
		dec, err := s.Classify(res, conf)
		if err != nil {
			return nil, fmt.Errorf("eval: %s on %s: %w", s.Name(), date.Format("2006-01-02"), err)
		}
		// Decisions are indexed by community everywhere downstream
		// (Ratios, Fig8-10, ComputeGainCost); a strategy returning a
		// short or stale slice must fail here, not panic later.
		if len(dec) != len(res.Communities) {
			return nil, fmt.Errorf("eval: %s on %s: %d decisions for %d communities",
				s.Name(), date.Format("2006-01-02"), len(dec), len(res.Communities))
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
		if detector != "" && !slices.Contains(day.Communities[i].Detectors, detector) {
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

// decisions returns the day's verdicts under the named strategy. A strategy
// the day was not classified under is an error, not an empty tally.
func decisions(day *DayResult, strategy string) ([]core.Decision, error) {
	dec, ok := day.Decisions[strategy]
	if !ok {
		return nil, fmt.Errorf("eval: no %q decisions on %s", strategy, day.Date.Format("2006-01-02"))
	}
	return dec, checkDecisions(day, dec)
}
