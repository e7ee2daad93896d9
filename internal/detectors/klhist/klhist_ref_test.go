package klhist

// This file keeps the pre-split, per-configuration Detect verbatim as the
// reference implementation — 4×bins map-backed histograms, the four KL series
// and the rule mining redone for every config — and pins Prepare + Decide to
// it: on randomized traces, for every config, the two must emit
// reflect.DeepEqual alarms. The KL sums are compared bit for bit through the
// alarms they select.

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"mawilab/internal/apriori"
	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/mawigen"
	"mawilab/internal/stats"
	"mawilab/internal/trace"
)

// histogram is the reference's discrete distribution over bucketed feature
// values: a map from key to weight, and the total weight.
type histogram struct {
	counts map[uint64]float64
	total  float64
}

func newHistogram() *histogram { return &histogram{counts: make(map[uint64]float64)} }

func (h *histogram) add(key uint64, weight float64) {
	h.counts[key] += weight
	h.total += weight
}

// klDivergence is the map-based reference for the production klDivergence:
// D(h || q) in bits over the union of the two supports, sorted ascending,
// with additive smoothing eps; 0 when either side is empty.
func (h *histogram) klDivergence(q *histogram, eps float64) float64 {
	if h.total == 0 || q.total == 0 {
		return 0
	}
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
		p := (h.counts[k] + eps) / (h.total + float64(eps*n))
		qq := (q.counts[k] + eps) / (q.total + float64(eps*n))
		d += float64(p * math.Log2(p/qq))
	}
	if d < 0 {
		d = 0 // guard tiny negative rounding
	}
	return d
}

// refBin is timeBin in seconds: the reference bins float seconds,
// float64(TS)/1e6, as the detector did before its axis moved to integer µs.
const refBin = timeBin / 1e6

// refDetect is the pre-split Detector.Detect, unchanged but for its
// histograms, which are this file's map-backed reference type, and its float
// seconds, which it computes from TS itself.
func refDetect(d *Detector, ix *trace.Index, config int) ([]core.Alarm, error) {
	if err := detectors.CheckConfig(d, config); err != nil {
		return nil, err
	}
	bins := int(math.Ceil(ix.Duration() / refBin))
	if ix.Len() == 0 || bins < 4 {
		return nil, nil
	}
	threshold := thresholds[config]

	// Build per-bin histograms for each feature from the index columns.
	hists := make([][]*histogram, numFeatures)
	for f := range hists {
		hists[f] = make([]*histogram, bins)
		for b := range hists[f] {
			hists[f][b] = newHistogram()
		}
	}
	for pi := 0; pi < ix.Len(); pi++ {
		b := int(float64(ix.TS[pi]) / 1e6 / refBin)
		if b >= bins {
			b = bins - 1
		}
		hists[FeatSrcIP][b].add(bucketIP(ix.Src[pi]), 1)
		hists[FeatDstIP][b].add(bucketIP(ix.Dst[pi]), 1)
		hists[FeatSrcPort][b].add(bucketPort(ix.SrcPort[pi]), 1)
		hists[FeatDstPort][b].add(bucketPort(ix.DstPort[pi]), 1)
	}

	// KL series per feature, then robust thresholding.
	anomalousBins := make(map[int][]Feature)
	for f := Feature(0); f < numFeatures; f++ {
		series := make([]float64, 0, bins-1)
		for b := 1; b < bins; b++ {
			series = append(series, hists[f][b].klDivergence(hists[f][b-1], 1e-6))
		}
		med := stats.Median(series)
		mad := stats.MAD(series)
		if mad < 1e-9 {
			mad = stats.Std(series)
			if mad < 1e-9 {
				continue
			}
		}
		for i, v := range series {
			if (v-med)/mad > threshold {
				b := i + 1
				anomalousBins[b] = append(anomalousBins[b], f)
			}
		}
	}
	if len(anomalousBins) == 0 {
		return nil, nil
	}

	binIDs := make([]int, 0, len(anomalousBins))
	for b := range anomalousBins {
		binIDs = append(binIDs, b)
	}
	sort.Ints(binIDs)

	var alarms []core.Alarm
	for _, b := range binIDs {
		from := float64(b) * refBin
		to := from + refBin
		lo, hi := ix.Window(int64(from*1e6), int64(to*1e6))
		txs := make([]apriori.Transaction, 0, hi-lo)
		for pi := lo; pi < hi; pi++ {
			p := ix.PacketAt(pi)
			txs = append(txs, apriori.FromFlow(p.Flow()))
		}
		rules := apriori.Maximal(apriori.Mine(txs, ruleSupport))
		if len(rules) > maxRulesPerBin {
			rules = rules[:maxRulesPerBin]
		}
		for _, rule := range rules {
			if rule.Degree() == 0 {
				continue
			}
			alarms = append(alarms, core.Alarm{
				Detector: d.Name(),
				Config:   config,
				Filters:  []trace.Filter{ruleToFilter(rule, int64(from*1e6), int64(to*1e6))},
				Score:    rule.Support,
				Note:     "kl divergence: " + rule.String(),
			})
		}
	}
	return alarms, nil
}

// diffIndexes is the differential corpus: five seeds each of a quiet
// background, a flood, a scan and an overlapping mix, plus an empty trace
// and one shorter than the detector's minimum span.
func diffIndexes() []*trace.Index {
	mixes := [][]mawigen.Spec{
		nil,
		{{Kind: mawigen.KindICMPFlood, Start: 15, Duration: 20, Rate: 300}},
		{{Kind: mawigen.KindPortScan, Start: 10, Duration: 25, Rate: 120}},
		{
			{Kind: mawigen.KindPortScan, Start: 5, Duration: 30, Rate: 90},
			{Kind: mawigen.KindSYNFlood, Start: 20, Duration: 15, Rate: 250},
			{Kind: mawigen.KindElephant, Start: 0, Duration: 40, Rate: 60},
		},
	}
	var out []*trace.Index
	for mi, anoms := range mixes {
		for seed := int64(0); seed < 5; seed++ {
			cfg := mawigen.DefaultConfig(2203 + 17*seed + int64(mi))
			cfg.BackgroundRate = 200
			cfg.Anomalies = anoms
			out = append(out, trace.NewIndex(mawigen.Generate(cfg).Trace))
		}
	}
	short := mawigen.DefaultConfig(2309)
	short.Duration = 12
	return append(out, trace.NewIndex(&trace.Trace{}), trace.NewIndex(mawigen.Generate(short).Trace))
}

// streamedSegments returns the sealed 15 s segments seq 0, 20 and 39 of one
// streamed 600 s day: the input RunStream hands a detector. A sealed segment
// keeps stream time, so the last one spans [585 s, 600 s) and its time axis,
// sized from the last timestamp, is 585 empty bins ahead of 15 occupied ones.
func streamedSegments(t *testing.T) []*trace.Index {
	t.Helper()
	arch := mawigen.NewArchive(1)
	arch.Duration, arch.BaseRate = 600, 300
	day := arch.Day(time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC))
	w := trace.NewSegmentWriter(context.Background(), 15)
	var out []*trace.Index
	keep := func(seg *trace.Segment, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if seg != nil && (seg.Seq == 0 || seg.Seq == 20 || seg.Seq == 39) {
			out = append(out, seg.Index)
		}
	}
	for _, p := range day.Trace.Packets {
		keep(w.Append(p))
	}
	keep(w.Close())
	if len(out) != 3 || out[2].Start() < 585 {
		t.Fatalf("kept %d segments, want seq 0, 20 and 39 of a 600 s day", len(out))
	}
	return out
}

// edgeIndex returns a sparse 55 s day ending in a flood, plus a copy of its
// last packet exactly on 60 s: a bin edge at every width these tests use
// (0.5 s to 5 s), so PCA and KL clamp it alone into their last bin, outside
// that bin's window, and Hough and Gamma give it their spare bin.
func edgeIndex() *trace.Index {
	cfg := mawigen.DefaultConfig(2411)
	cfg.Duration, cfg.BackgroundRate = 55, 50
	cfg.Anomalies = []mawigen.Spec{{Kind: mawigen.KindICMPFlood, Start: 40, Duration: 15, Rate: 300}}
	tr := mawigen.Generate(cfg).Trace
	last := tr.Packets[tr.Len()-1]
	last.TS = 60e6
	tr.Append(last)
	return trace.NewIndex(tr)
}

// TestPrepareDecideMatchesReference pins Prepare + Decide (and Detect, which
// is the two in sequence) to the pre-split reference for every config.
func TestPrepareDecideMatchesReference(t *testing.T) {
	d := New()
	raised := [detectors.NumTunings]int{}
	for ti, ix := range append(diffIndexes(), append(streamedSegments(t), edgeIndex())...) {
		p, err := d.Prepare(ix)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < d.NumConfigs(); c++ {
			want, err := refDetect(d, ix, c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Decide(c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trace %d config %d: Decide\n%v\nreference\n%v", ti, c, got, want)
			}
			if one, _ := d.Detect(ix, c); !reflect.DeepEqual(one, want) {
				t.Fatalf("trace %d config %d: Detect differs from the reference", ti, c)
			}
			raised[c] += len(want)
		}
	}
	// The configs must disagree somewhere, or the per-config filter was
	// never exercised.
	if raised[0] == 0 || raised[0] == raised[1] || raised[0] == raised[2] {
		t.Fatalf("alarms per config %v do not separate the thresholds", raised)
	}
}

// TestKLDivergenceMatchesHistogram pins the run-merging divergence to the
// map-based reference bit for bit, including disjoint supports and an empty
// side.
func TestKLDivergenceMatchesHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 300; round++ {
		var runs [2][]keyCount
		var hists [2]*histogram
		var totals [2]float64
		for s := range runs {
			c := &counter{n: make([]int32, 40)}
			hists[s] = newHistogram()
			for i := rng.Intn(30); i > 0; i-- {
				key := uint32(rng.Intn(20) + 20*s*rng.Intn(2))
				c.add(key)
				hists[s].add(uint64(key), 1)
				totals[s]++
			}
			runs[s] = c.flush(nil)
		}
		got := klDivergence(runs[0], runs[1], totals[0], totals[1], 1e-6)
		want := hists[0].klDivergence(hists[1], 1e-6)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d: klDivergence = %v, reference = %v", round, got, want)
		}
	}
}

// runsOf counts keys into the sorted (key, count) runs klDivergence reads,
// returning the runs and their total.
func runsOf(keys ...uint32) ([]keyCount, float64) {
	c := &counter{n: make([]int32, 1024)}
	for _, k := range keys {
		c.add(k)
	}
	return c.flush(nil), float64(len(keys))
}

// TestKLDivergenceProperties: the same shape at a different mass diverges by
// ~0 and a disjoint, concentrated support by a lot.
func TestKLDivergenceProperties(t *testing.T) {
	var same, scaled []uint32
	for k := uint32(0); k < 10; k++ {
		for i := uint32(0); i <= k; i++ {
			same = append(same, k)
			for j := 0; j < 7; j++ {
				scaled = append(scaled, k)
			}
		}
	}
	p, pt := runsOf(same...)
	q, qt := runsOf(scaled...)
	if d := klDivergence(p, q, pt, qt, 1e-9); d > 1e-6 {
		t.Errorf("KL of identical shapes = %g, want ~0", d)
	}
	if d := klDivergence(p, p, pt, pt, 1e-6); d != 0 {
		t.Errorf("KL of identical inputs = %g, want 0", d)
	}
	shifted := make([]uint32, 100)
	for i := range shifted {
		shifted[i] = 999
	}
	s, st := runsOf(shifted...)
	if d := klDivergence(p, s, pt, st, 1e-9); d < 1 {
		t.Errorf("KL of disjoint supports = %g, want large", d)
	}
}

// TestKLDivergenceNonNegativeProperty: the divergence of random histograms is
// never negative.
func TestKLDivergenceNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b []uint32
		for i := 0; i < 30; i++ {
			for w := rng.Intn(10); w >= 0; w-- {
				a = append(a, uint32(rng.Intn(20)))
			}
			for w := rng.Intn(10); w >= 0; w-- {
				b = append(b, uint32(rng.Intn(20)))
			}
		}
		p, pt := runsOf(a...)
		q, qt := runsOf(b...)
		return klDivergence(p, q, pt, qt, 1e-6) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestKLEmpty: an empty side makes the divergence 0 either way round.
func TestKLEmpty(t *testing.T) {
	q, qt := runsOf(1)
	if klDivergence(nil, q, 0, qt, 1e-6) != 0 || klDivergence(q, nil, qt, 0, 1e-6) != 0 {
		t.Error("KL with an empty side should be 0")
	}
}
