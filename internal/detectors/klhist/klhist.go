// Package klhist implements the Kullback-Leibler histogram detector of
// Brauckhoff et al. (§3.2 (4)): per-interval histograms over several
// traffic features are compared with the KL divergence, and prominent
// distribution changes are turned into association rules describing the
// responsible traffic.
//
// For every time bin, histograms over source IP, destination IP, source
// port and destination port are built; the divergence of each histogram
// against the previous bin forms a per-feature time series, thresholded
// robustly (median + c·MAD). When a bin is anomalous, Apriori rule mining
// over the bin's packets extracts the feature tuples that changed, and
// each maximal rule becomes one alarm — 4-tuples where elements can be
// omitted, exactly the paper's alarm granularity for this detector.
package klhist

import (
	"fmt"
	"math"
	"slices"

	"mawilab/internal/apriori"
	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/stats"
	"mawilab/internal/trace"
)

// Feature indexes the monitored histogram features.
type Feature int

// Monitored features.
const (
	FeatSrcIP Feature = iota
	FeatDstIP
	FeatSrcPort
	FeatDstPort
	numFeatures
)

// String names the feature.
func (f Feature) String() string {
	switch f {
	case FeatSrcIP:
		return "srcIP"
	case FeatDstIP:
		return "dstIP"
	case FeatSrcPort:
		return "srcPort"
	case FeatDstPort:
		return "dstPort"
	default:
		return "feature?"
	}
}

// Detector is the KL-divergence histogram detector. It has no settings: its
// parameters are package constants, its configurations three fixed
// thresholds.
type Detector struct{}

// The detector's parameters, fixed for every tuning.
const (
	timeBin        = 5.0  // histogram interval, seconds
	ruleSupport    = 0.15 // Apriori's minimum support for anomaly extraction
	maxRulesPerBin = 8    // alarms from one anomalous bin, at most
)

// thresholds holds the per-configuration robust z threshold on the KL
// series; index with detectors.Optimal/Sensitive/Conservative.
var thresholds = [detectors.NumTunings]float64{
	detectors.Optimal:      9,
	detectors.Sensitive:    6,
	detectors.Conservative: 16,
}

// New returns the detector.
func New() *Detector { return &Detector{} }

// Name implements detectors.Detector.
func (d *Detector) Name() string { return "kl" }

// NumConfigs implements detectors.Detector.
func (d *Detector) NumConfigs() int { return int(detectors.NumTunings) }

// Detect implements detectors.Detector: one Prepare, one Decide.
func (d *Detector) Detect(ix *trace.Index, config int) ([]core.Alarm, error) {
	return detectors.Detect(d, ix, config)
}

// prepared is the threshold-independent analysis of one index: every time
// bin some configuration can flag, in ascending order, with the rules mined
// from its packets. A stricter threshold flags a subset of the bins a looser
// one flags, and a bin's rules do not depend on the threshold. It holds no
// reference to the index.
type prepared struct {
	d    *Detector
	bins []changedBin
}

// changedBin is one time bin whose largest robust z over the four KL series
// exceeds the smallest configured threshold.
type changedBin struct {
	z        float64
	from, to float64
	rules    []apriori.Rule // maximal, capped at maxRulesPerBin
}

// Prepare implements detectors.Preparer: the per-(feature, bin) histograms,
// the four KL series with their robust z-scores, and the association rules
// of every bin the loosest threshold flags. A configuration is one threshold
// on a bin's largest z.
func (d *Detector) Prepare(ix *trace.Index) (detectors.Prepared, error) {
	ax, err := trace.NewTimeAxis(ix, timeBin)
	if err != nil {
		return nil, fmt.Errorf("kl: %v s bins: %w", timeBin, err)
	}
	p := &prepared{d: d}
	if ix.Len() == 0 || ax.Bins < 4 {
		return p, nil
	}

	// Largest robust z per bin over the four KL series.
	maxZ := make([]float64, ax.Bins)
	for b := range maxZ {
		maxZ[b] = math.Inf(-1)
	}
	scratch := make([]float64, 2*(ax.Bins-1))
	for _, series := range klSeries(ix, ax) {
		med, mad := stats.MedianMAD(series, scratch)
		if mad < 1e-9 {
			mad = stats.Std(series)
			if mad < 1e-9 {
				continue
			}
		}
		for i, v := range series {
			if z := (v - med) / mad; z > maxZ[i+1] {
				maxZ[i+1] = z
			}
		}
	}

	loosest := slices.Min(thresholds[:])
	var txs []apriori.Transaction // one packet's transaction is its flow's; reused across bins
	for b, z := range maxZ {
		if z <= loosest {
			continue
		}
		from, to := ax.Interval(b, b)
		lo, hi := ix.Window(from, to)
		txs = txs[:0]
		for pi := lo; pi < hi; pi++ {
			txs = append(txs, apriori.FromFlow(ix.Flow(int(ix.FlowIDOf(pi)))))
		}
		rules := apriori.MaximalRules(txs, ruleSupport)
		if len(rules) > maxRulesPerBin {
			rules = rules[:maxRulesPerBin]
		}
		p.bins = append(p.bins, changedBin{z: z, from: from, to: to, rules: rules})
	}
	return p, nil
}

// Decide implements detectors.Prepared.
func (p *prepared) Decide(config int) ([]core.Alarm, error) {
	d := p.d
	if err := detectors.CheckConfig(d, config); err != nil {
		return nil, err
	}
	threshold := thresholds[config]
	var alarms []core.Alarm
	for _, b := range p.bins {
		if b.z <= threshold {
			continue
		}
		for _, rule := range b.rules {
			alarms = append(alarms, core.Alarm{
				Detector: d.Name(),
				Config:   config,
				Filters:  []trace.Filter{ruleToFilter(rule, b.from, b.to)},
				Score:    rule.Support,
				Note:     "kl divergence: " + rule.String(),
			})
		}
	}
	return alarms, nil
}

// klSeries returns, per feature, the KL divergence of every time bin's
// histogram against the previous bin's (entry i compares bin i+1 with bin
// i). Timestamps are sorted, so a bin is one contiguous packet range: one
// dense counter per feature serves every bin in turn, and flushing it yields
// the bin's histogram as (key, count) runs in ascending key order — only the
// current and the previous bin's runs are ever held.
func klSeries(ix *trace.Index, ax trace.TimeAxis) [numFeatures][]float64 {
	var (
		series    [numFeatures][]float64
		counters  [numFeatures]*counter
		cur, prev [numFeatures][]keyCount
	)
	for f := range series {
		series[f] = make([]float64, ax.Bins-1)
		domain := ipBuckets
		if Feature(f) == FeatSrcPort || Feature(f) == FeatDstPort {
			domain = portBuckets
		}
		counters[f] = &counter{n: make([]int32, domain)}
	}
	var curTotal, prevTotal float64
	flush := func(b int) {
		for f := range counters {
			cur[f] = counters[f].flush(cur[f][:0])
			if b > 0 {
				series[f][b-1] = klDivergence(cur[f], prev[f], curTotal, prevTotal, 1e-6)
			}
		}
		cur, prev = prev, cur
		curTotal, prevTotal = 0, curTotal
	}
	at := 0
	for pi, sec := range ix.Seconds {
		for b := ax.Bin(sec); at < b; at++ {
			flush(at)
		}
		counters[FeatSrcIP].add(uint32(bucketIP(ix.Src[pi])))
		counters[FeatDstIP].add(uint32(bucketIP(ix.Dst[pi])))
		counters[FeatSrcPort].add(uint32(bucketPort(ix.SrcPort[pi])))
		counters[FeatDstPort].add(uint32(bucketPort(ix.DstPort[pi])))
		curTotal++
	}
	for ; at < ax.Bins; at++ {
		flush(at)
	}
	return series
}

// keyCount is one non-empty histogram bucket.
type keyCount struct {
	key uint32
	n   int32
}

// counter is a dense histogram over a small key domain that remembers which
// keys it touched, so flushing costs the distinct keys, not the domain.
type counter struct {
	n       []int32
	touched []uint32
}

func (c *counter) add(key uint32) {
	if c.n[key] == 0 {
		c.touched = append(c.touched, key)
	}
	c.n[key]++
}

// flush appends the counted buckets to dst in ascending key order and
// zeroes the counter.
func (c *counter) flush(dst []keyCount) []keyCount {
	slices.Sort(c.touched)
	for _, key := range c.touched {
		dst = append(dst, keyCount{key, c.n[key]})
		c.n[key] = 0
	}
	c.touched = c.touched[:0]
	return dst
}

// klDivergence returns D(p || q) in bits over the union of the two supports
// with additive smoothing eps — stats.Histogram.KLDivergence on sorted
// (key, count) runs: the same terms accumulated in the same ascending key
// order, by merging the runs instead of sorting a union of map keys.
func klDivergence(p, q []keyCount, pTotal, qTotal, eps float64) float64 {
	if pTotal == 0 || qTotal == 0 {
		return 0
	}
	support := len(p) + len(q)
	for i, j := 0, 0; i < len(p) && j < len(q); {
		switch {
		case p[i].key < q[j].key:
			i++
		case p[i].key > q[j].key:
			j++
		default:
			support--
			i++
			j++
		}
	}
	pDen := pTotal + eps*float64(support)
	qDen := qTotal + eps*float64(support)
	d := 0.0
	for i, j := 0, 0; i < len(p) || j < len(q); {
		var pn, qn float64
		switch {
		case j == len(q) || (i < len(p) && p[i].key < q[j].key):
			pn = float64(p[i].n)
			i++
		case i == len(p) || q[j].key < p[i].key:
			qn = float64(q[j].n)
			j++
		default:
			pn, qn = float64(p[i].n), float64(q[j].n)
			i++
			j++
		}
		pp := (pn + eps) / pDen
		qq := (qn + eps) / qDen
		d += pp * math.Log2(pp/qq)
	}
	if d < 0 {
		d = 0 // guard tiny negative rounding
	}
	return d
}

// bucketIP folds an address onto its /16 prefix. Full-resolution IP
// histograms on a backbone link barely overlap between intervals, giving a
// noisy divergence baseline that buries real changes; prefix aggregation
// keeps the supports comparable (Brauckhoff et al. likewise histogram over
// coarsened feature spaces).
func bucketIP(ip trace.IPv4) uint64 { return uint64(ip >> 16) }

// ipBuckets and portBuckets bound bucketIP's and bucketPort's values: the
// key domains of the dense per-bin counters.
const (
	ipBuckets   = 1 << 16
	portBuckets = 1024 + (1<<16)/512
)

// bucketPort keeps well-known ports at full resolution and folds ephemeral
// ports into 512-wide buckets.
func bucketPort(p uint16) uint64 {
	if p < 1024 {
		return uint64(p)
	}
	return 1024 + uint64(p)/512
}

// ruleToFilter converts a mined 4-tuple rule to a traffic filter bounded to
// the anomalous interval.
func ruleToFilter(rule apriori.Rule, from, to float64) trace.Filter {
	f := trace.NewFilter().WithInterval(from, to)
	for _, it := range rule.Items {
		switch it.Field {
		case apriori.FieldSrcIP:
			f = f.WithSrc(trace.IPv4(it.Value))
		case apriori.FieldSrcPort:
			f = f.WithSrcPort(uint16(it.Value))
		case apriori.FieldDstIP:
			f = f.WithDst(trace.IPv4(it.Value))
		case apriori.FieldDstPort:
			f = f.WithDstPort(uint16(it.Value))
		}
	}
	return f
}
