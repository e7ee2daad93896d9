// Package detectors defines the common contract implemented by the four
// anomaly detectors the paper combines (§3.2): PCA with sketches, the
// multiresolution Gamma model, the Hough-transform pattern detector, and
// the Kullback-Leibler histogram detector.
//
// Each detector runs unsupervised over one trace under each of its
// parameter sets ("configurations": optimal, sensitive, conservative) and
// reports core.Alarms. Detectors consume the trace through its shared
// columnar trace.Index, built once per trace. The similarity estimator is
// what makes their heterogeneous granularities comparable, so
// implementations are free to report hosts, flows, packets or feature
// tuples.
//
// # Prepare once, decide per configuration
//
// Each standard detector is one fixed table of three tunings: its bin
// widths, sketch sizes and caps are package constants, its sketches hash
// with Seed, and the configuration index is its only input besides the
// trace. A tuning never changes what is computed from the packets — it is a
// threshold, a subspace size, a cell activation count — so the contract has
// two halves. A Preparer builds everything that does not depend on the
// configuration in one Prepare(ix): the sketch rasterizations, Gamma fits,
// per-bin histograms and KL series, eigenvectors, rasterized Hough planes.
// The Prepared it returns answers Decide(config) from that state alone.
// DetectAllContext calls Prepare once per detector and Decide once per
// configuration; the Detect method of a standard detector is Detect(d, ix,
// config): Prepare followed by one Decide — the same code, paying the whole
// preparation for one answer.
//
// A Prepared is scoped to the call that made it. It is read-only once
// Prepare returns, so Decide may be called concurrently for different (or
// the same) configurations; it may read the index it was prepared from, so
// it is invalid once that index is released (trace.Index.Release) — the
// four standard detectors copy what they need and hold no reference to it,
// but a Prepared is not promised to; and nothing
// in this package or in the standard detectors stores one — not on the
// detector, not keyed by index — so there is nothing to size or to
// invalidate.
//
// A custom detector needs none of this: one that implements only
// Name/NumConfigs/Detect joins the ensemble as it always did, and
// DetectAllContext calls its Detect once per configuration. Implementing
// Preparer is worth it exactly when the configurations share work.
package detectors

import (
	"context"
	"fmt"

	"mawilab/internal/core"
	"mawilab/internal/parallel"
	"mawilab/internal/trace"
)

// Seed is the hash seed of the sketch-based standard detectors (PCA, Gamma
// and Hough), fixed so that every run labels a trace the same way.
const Seed = 0x6d617769 // "mawi"

// Tuning indexes a detector's parameter sets.
type Tuning int

// The paper's three tunings per detector.
const (
	// Optimal is the recommended middle-ground parameter set.
	Optimal Tuning = iota
	// Sensitive trades false positives for recall.
	Sensitive
	// Conservative trades recall for precision.
	Conservative
	// NumTunings is the number of parameter sets per detector.
	NumTunings
)

// String names the tuning.
func (t Tuning) String() string {
	switch t {
	case Optimal:
		return "optimal"
	case Sensitive:
		return "sensitive"
	case Conservative:
		return "conservative"
	default:
		return fmt.Sprintf("tuning(%d)", int(t))
	}
}

// Detector is one unsupervised anomaly detector with a fixed set of
// configurations. It is the whole contract a custom detector must meet; a
// detector whose configurations share work may also implement Preparer.
type Detector interface {
	// Name is the short identifier used in alarms ("pca", "gamma",
	// "hough", "kl"). It keys the detector's votes, so it must be unique
	// within an ensemble (see Totals).
	Name() string
	// NumConfigs returns how many parameter sets the detector offers.
	NumConfigs() int
	// Detect analyzes the indexed trace under parameter set config and
	// returns the alarms raised. The index is shared across every detector
	// of a trace, so implementations must treat it as read-only. They must
	// be deterministic for a given (index, config), and safe for
	// concurrent Detect calls on the same receiver: the pipeline fans the
	// (detector, config) runs out across a worker pool.
	Detect(ix *trace.Index, config int) ([]core.Alarm, error)
}

// Preparer is the optional second half of the contract: a Detector that
// computes its configuration-independent state once per trace. For every
// config, Prepare(ix) followed by Decide(config) must return exactly what
// Detect(ix, config) returns.
type Preparer interface {
	Detector
	// Prepare makes one pass over the index and returns the state every
	// configuration's decision reads. It must not keep the result on the
	// receiver: concurrent Prepare calls over different indexes are
	// independent.
	Prepare(ix *trace.Index) (Prepared, error)
}

// Prepared is a detector's configuration-independent view of one index. It
// is read-only after Prepare — Decide is safe for concurrent calls — and
// valid only until the index it was prepared from is released.
type Prepared interface {
	// Decide returns the alarms of parameter set config.
	Decide(config int) ([]core.Alarm, error)
}

// unprepared adapts a plain Detector: nothing is shared, every Decide is
// one Detect.
type unprepared struct {
	d  Detector
	ix *trace.Index
}

func (u unprepared) Decide(config int) ([]core.Alarm, error) { return u.d.Detect(u.ix, config) }

// Totals returns the detector→configuration-count map core.Result.Confidences
// needs. Alarms, votes and confidences are keyed by detector name, so two
// detectors sharing one would be conflated silently; Totals rejects that.
func Totals(dets []Detector) (map[string]int, error) {
	totals := make(map[string]int, len(dets))
	for _, d := range dets {
		if _, dup := totals[d.Name()]; dup {
			return nil, fmt.Errorf("detectors: duplicate detector name %q", d.Name())
		}
		totals[d.Name()] = d.NumConfigs()
	}
	return totals, nil
}

// DetectAllContext is the detection entry point: it runs every
// configuration of every detector over one shared trace.Index — a sealed
// segment's (seg.Index from trace.SegmentWriter/trace.Segments) or a whole
// trace's canonical index (trace.SealTrace) — and concatenates the alarms,
// the "12 outputs of all the configurations" fed to the similarity
// estimator in the paper's experiments. It also returns the per-detector
// configuration totals needed for confidence scores (see Totals; a repeated
// detector name is an error).
//
// It works in two fan-outs over up to `workers` goroutines (<= 1 runs
// inline), all sharing the one trace.Index: first one Prepare per detector
// — a detector that is not a Preparer has nothing to prepare — then one
// Decide per (detector, config). Each decision's alarms land in a slot
// keyed by (detector index, config index) and are concatenated in that
// order, so the output is byte-identical to calling d.Detect(ix, c) in
// (detector, config) order, regardless of worker count or scheduling. The
// prepared state lives only inside this call; ix must not be released
// before it returns.
func DetectAllContext(ctx context.Context, ix *trace.Index, dets []Detector, workers int) ([]core.Alarm, map[string]int, error) {
	totals, err := Totals(dets)
	if err != nil {
		return nil, nil, err
	}
	prepared, err := parallel.Map(ctx, len(dets), workers, func(_ context.Context, i int) (Prepared, error) {
		p, ok := dets[i].(Preparer)
		if !ok {
			return unprepared{dets[i], ix}, nil
		}
		pr, err := p.Prepare(ix)
		if err != nil {
			return nil, fmt.Errorf("detectors: %s: prepare: %w", p.Name(), err)
		}
		return pr, nil
	})
	if err != nil {
		return nil, nil, err
	}
	type job struct{ det, cfg int }
	var jobs []job
	for di, d := range dets {
		for cfg := 0; cfg < d.NumConfigs(); cfg++ {
			jobs = append(jobs, job{di, cfg})
		}
	}
	slots, err := parallel.Map(ctx, len(jobs), workers, func(_ context.Context, i int) ([]core.Alarm, error) {
		out, err := prepared[jobs[i].det].Decide(jobs[i].cfg)
		if err != nil {
			return nil, fmt.Errorf("detectors: %s/%d: %w", dets[jobs[i].det].Name(), jobs[i].cfg, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var alarms []core.Alarm
	for _, out := range slots {
		alarms = append(alarms, out...)
	}
	return alarms, totals, nil
}

// CheckConfig validates a configuration index against a detector.
func CheckConfig(d Detector, config int) error {
	if config < 0 || config >= d.NumConfigs() {
		return fmt.Errorf("detectors: %s: config %d out of [0,%d)", d.Name(), config, d.NumConfigs())
	}
	return nil
}

// Detect runs one configuration of a Preparer: it checks config, prepares
// ix and decides config — the code DetectAllContext runs, paying the whole
// preparation for one answer. It is the Detect method of the standard
// detectors.
func Detect(p Preparer, ix *trace.Index, config int) ([]core.Alarm, error) {
	if err := CheckConfig(p, config); err != nil {
		return nil, err
	}
	pr, err := p.Prepare(ix)
	if err != nil {
		return nil, err
	}
	return pr.Decide(config)
}
