package gammafit

// This file keeps the pre-split, per-configuration Detect verbatim as the
// reference implementation — map-based sketch group, [][]float64 cell
// counts, one full analysis per config — and pins Prepare + Decide to it:
// on randomized traces, for every config, the two must emit
// reflect.DeepEqual alarms. Any divergence — ordering,
// tie-breaking, float rounding — fails here before it can drift a golden
// fixture.

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/mawigen"
	"mawilab/internal/sketch"
	"mawilab/internal/stats"
	"mawilab/internal/trace"
)

// refGroup is the map-based reverse index internal/sketch used to export as
// Group: for one sketch, the addresses that fell into each bin.
type refGroup struct {
	sketch *sketch.Sketch
	byBin  []map[trace.IPv4]int // address → packet count
}

func newRefGroup(s *sketch.Sketch) *refGroup {
	g := &refGroup{sketch: s, byBin: make([]map[trace.IPv4]int, s.Bins)}
	for i := range g.byBin {
		g.byBin[i] = make(map[trace.IPv4]int)
	}
	return g
}

func (g *refGroup) Observe(ip trace.IPv4) int {
	b := g.sketch.Bin(ip)
	g.byBin[b][ip]++
	return b
}

func (g *refGroup) TopHosts(b, k int) []trace.IPv4 {
	type hc struct {
		ip trace.IPv4
		n  int
	}
	hosts := make([]hc, 0, len(g.byBin[b]))
	for ip, n := range g.byBin[b] {
		hosts = append(hosts, hc{ip, n})
	}
	sort.Slice(hosts, func(i, j int) bool {
		if hosts[i].n != hosts[j].n {
			return hosts[i].n > hosts[j].n
		}
		return hosts[i].ip < hosts[j].ip
	})
	if k > len(hosts) {
		k = len(hosts)
	}
	out := make([]trace.IPv4, k)
	for i := 0; i < k; i++ {
		out[i] = hosts[i].ip
	}
	return out
}

// refResolutions are resolutions in seconds: the reference bins float
// seconds, float64(TS)/1e6, as the detector did before its axis moved to
// integer µs.
var refResolutions = func() (sec [len(resolutions)]float64) {
	for i, res := range resolutions {
		sec[i] = float64(res) / 1e6
	}
	return sec
}()

// refDetect is the pre-split Detector.Detect, unchanged but for its float
// seconds, which it computes from TS itself.
func refDetect(d *Detector, ix *trace.Index, config int) ([]core.Alarm, error) {
	if err := detectors.CheckConfig(d, config); err != nil {
		return nil, err
	}
	if ix.Len() == 0 || ix.Duration() < 4*refResolutions[len(refResolutions)-1] {
		return nil, nil
	}
	threshold := thresholds[config]
	var alarms []core.Alarm
	alarms = append(alarms, refDetectDirection(d, ix, config, threshold, false)...)
	alarms = append(alarms, refDetectDirection(d, ix, config, threshold, true)...)
	return alarms, nil
}

// refDetectDirection is the pre-split detectDirection, unchanged.
func refDetectDirection(d *Detector, ix *trace.Index, config int, threshold float64, dst bool) []core.Alarm {
	seed := uint64(detectors.Seed)
	if dst {
		seed ^= 0xdeadbeef
	}
	sk := sketch.New(sketchWidth, seed)
	group := newRefGroup(sk)

	finest := refResolutions[0]
	cells := int(math.Ceil(ix.Duration()/finest)) + 1
	counts := make([][]float64, sketchWidth)
	for b := range counts {
		counts[b] = make([]float64, cells)
	}
	addrs := ix.Src
	if dst {
		addrs = ix.Dst
	}
	for pi := 0; pi < ix.Len(); pi++ {
		b := group.Observe(addrs[pi])
		c := int(float64(ix.TS[pi]) / 1e6 / finest)
		if c >= cells {
			c = cells - 1
		}
		counts[b][c]++
	}

	// Per-resolution Gamma fits for every active bin.
	type binFit struct {
		bin  int
		fits []stats.GammaParams // aligned with resolutions
	}
	var fits []binFit
	for b := 0; b < sketchWidth; b++ {
		total := 0.0
		for _, v := range counts[b] {
			total += v
		}
		if total == 0 {
			continue
		}
		bf := binFit{bin: b}
		ok := true
		for ri, res := range refResolutions {
			sample := refAggregate(counts[b], int(math.Round(res/finest)))
			g, err := stats.FitGammaMoments(0, sample)
			if err != nil {
				ok = false
				break
			}
			_ = ri
			bf.fits = append(bf.fits, g)
		}
		if ok {
			fits = append(fits, bf)
		}
	}
	if len(fits) < 4 {
		return nil // not enough populated bins for a reference
	}

	// Adaptive reference: per-resolution median and MAD of α and β.
	nres := len(resolutions)
	refs := make([]stats.GammaParams, nres)
	alphaMAD := make([]float64, nres)
	betaMAD := make([]float64, nres)
	for ri := 0; ri < nres; ri++ {
		alphas := make([]float64, len(fits))
		betas := make([]float64, len(fits))
		for i, bf := range fits {
			alphas[i] = bf.fits[ri].Alpha
			betas[i] = bf.fits[ri].Beta
		}
		refs[ri] = stats.GammaParams{Alpha: stats.Median(alphas), Beta: stats.Median(betas)}
		alphaMAD[ri] = robustScale(stats.MAD(alphas), refs[ri].Alpha)
		betaMAD[ri] = robustScale(stats.MAD(betas), refs[ri].Beta)
	}

	var alarms []core.Alarm
	for _, bf := range fits {
		dist := 0.0
		for ri := 0; ri < nres; ri++ {
			dist += stats.GammaDistance(bf.fits[ri], refs[ri], alphaMAD[ri], betaMAD[ri])
		}
		if dist <= threshold {
			continue
		}
		for _, host := range group.TopHosts(bf.bin, topHosts) {
			f := trace.NewFilter()
			if dst {
				f = f.WithDst(host)
			} else {
				f = f.WithSrc(host)
			}
			alarms = append(alarms, core.Alarm{
				Detector: d.Name(),
				Config:   config,
				Filters:  []trace.Filter{f},
				Score:    dist,
				Note:     direction(dst) + " sketch bin",
			})
		}
	}
	// Deterministic order: by first filter host.
	sort.SliceStable(alarms, func(i, j int) bool {
		return filterHost(alarms[i]) < filterHost(alarms[j])
	})
	return alarms
}

// refAggregate is the pre-split aggregate: it sums consecutive groups of
// `factor` cells into a fresh slice.
func refAggregate(cells []float64, factor int) []float64 {
	if factor <= 1 {
		out := make([]float64, len(cells))
		copy(out, cells)
		return out
	}
	n := (len(cells) + factor - 1) / factor
	out := make([]float64, n)
	for i, v := range cells {
		out[i/factor] += v
	}
	return out
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
			cfg := mawigen.DefaultConfig(1301 + 17*seed + int64(mi))
			cfg.BackgroundRate = 200
			cfg.Anomalies = anoms
			out = append(out, trace.NewIndex(mawigen.Generate(cfg).Trace))
		}
	}
	short := mawigen.DefaultConfig(1409)
	short.Duration = 3
	return append(out, trace.NewIndex(&trace.Trace{}), trace.NewIndex(mawigen.Generate(short).Trace))
}

// streamedSegments returns the sealed 15 s segments seq 0, 1, 20 and 39 of
// one streamed 600 s day — the input RunStream hands a detector — and a
// sparse stretch of the same day. A sealed segment keeps stream time, so
// the last one spans [585 s, 600 s) and its time axis, sized from the last
// timestamp, is 585 empty bins ahead of 15 occupied ones; at seq 1 the empty
// bins are half the axis, so a column's median straddles them. The sparse
// stretch keeps the packets in [451.3 s, 475 s) outside [458 s, 462 s) and
// [466 s, 467.5 s): its first bin is not a multiple of Gamma's coarsest
// factor, and empty bins sit between occupied ones.
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
		if seg != nil && (seg.Seq == 0 || seg.Seq == 1 || seg.Seq == 20 || seg.Seq == 39) {
			out = append(out, seg.Index)
		}
	}
	sparse := &trace.Trace{}
	for _, p := range day.Trace.Packets {
		keep(w.Append(p))
		if p.TS >= 451.3e6 && p.TS < 475e6 && !(p.TS >= 458e6 && p.TS < 462e6) && !(p.TS >= 466e6 && p.TS < 467.5e6) {
			sparse.Append(p)
		}
	}
	keep(w.Close())
	if len(out) != 4 || out[3].Start() < 585 {
		t.Fatalf("kept %d segments, want seq 0, 1, 20 and 39 of a 600 s day", len(out))
	}
	return append(out, trace.NewIndex(sparse))
}

// edgeIndex returns a sparse 55 s day ending in a flood, plus a copy of its
// last packet exactly on 60 s: a bin edge at every width these tests use
// (0.5 s to 5 s), so PCA and KL clamp it alone into their last bin, outside
// that bin's window, and Hough and Gamma give it their spare bin.
func edgeIndex() *trace.Index {
	cfg := mawigen.DefaultConfig(3001)
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
	raised := 0
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
			raised += len(want)
		}
	}
	if raised == 0 {
		t.Fatal("the corpus raised no alarm: the comparison is vacuous")
	}
}
