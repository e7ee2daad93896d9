package pca

// This file keeps the pre-split, per-configuration Detect verbatim as the
// reference implementation — one rasterization, covariance and
// eigendecomposition per sketch per config, map-based host votes — and pins
// Prepare + Decide to it: on randomized traces, for every config, the two
// must emit reflect.DeepEqual alarms.

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/linalg"
	"mawilab/internal/mawigen"
	"mawilab/internal/sketch"
	"mawilab/internal/stats"
	"mawilab/internal/trace"
)

// refBin is timeBin in seconds: the reference bins float seconds,
// float64(TS)/1e6, as the detector did before its axis moved to integer µs.
const refBin = timeBin / 1e6

// refDetect is the pre-split Detector.Detect, unchanged but for its float
// seconds, which it computes from TS itself.
func refDetect(d *Detector, ix *trace.Index, config int) ([]core.Alarm, error) {
	if err := detectors.CheckConfig(d, config); err != nil {
		return nil, err
	}
	tn := tunings[config]
	dur := ix.Duration()
	t := int(math.Ceil(dur / refBin))
	if t < 8 || ix.Len() == 0 {
		return nil, nil // too short for a meaningful subspace
	}

	// votes[host] = set of sketches implicating the host at a time bin.
	type hostBin struct {
		host trace.IPv4
		bin  int // time bin
	}
	votes := make(map[hostBin]int)

	for si := 0; si < numSketches; si++ {
		sk := sketch.New(sketchWidth, detectors.Seed+uint64(si)*0x9e37)
		x := linalg.NewMatrix(t, sketchWidth)
		for pi := 0; pi < ix.Len(); pi++ {
			tb := int(float64(ix.TS[pi]) / 1e6 / refBin)
			if tb >= t {
				tb = t - 1
			}
			sb := sk.Bin(ix.Src[pi])
			x.Set(tb, sb, x.At(tb, sb)+1)
		}
		anomalous := refSubspaceResiduals(x, tn)
		for _, at := range anomalous {
			// Recover hosts: rescan the window via the index's time
			// buckets, count per suspicious bin.
			lo, hi := ix.Window(int64(float64(at.bin)*refBin*1e6), int64(float64(at.bin+1)*refBin*1e6))
			counts := make(map[trace.IPv4]int)
			for pi := lo; pi < hi; pi++ {
				if sk.Bin(ix.Src[pi]) == at.sketchBin {
					counts[ix.Src[pi]]++
				}
			}
			for _, h := range refTopHosts(counts, 3) {
				votes[hostBin{h, at.bin}]++
			}
		}
	}

	// Hosts implicated by enough independent sketches become alarms; merge
	// contiguous time bins per host.
	perHost := make(map[trace.IPv4][]int)
	for hb, n := range votes {
		if n >= minAgree {
			perHost[hb.host] = append(perHost[hb.host], hb.bin)
		}
	}
	hosts := make([]trace.IPv4, 0, len(perHost))
	for h := range perHost {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })

	var alarms []core.Alarm
	for _, h := range hosts {
		sort.Ints(perHost[h])
		for _, iv := range mergeBins(perHost[h]) {
			alarms = append(alarms, core.Alarm{
				Detector: d.Name(),
				Config:   config,
				Filters: []trace.Filter{
					trace.NewFilter().WithSrc(h).
						WithInterval(int64(float64(iv[0])*refBin*1e6), int64(float64(iv[1]+1)*refBin*1e6)),
				},
				Note: "pca residual",
			})
		}
	}
	return alarms, nil
}

// anomaly is a (time bin, sketch bin) cell with excess residual.
type anomaly struct {
	bin       int
	sketchBin int
}

// refSubspaceResiduals is the pre-split subspaceResiduals, unchanged: it
// centers and standardizes x's columns, finds the top principal components,
// and returns the (time bin, sketch bin) cells driving residuals above a
// robust threshold (median + σ·1.4826·MAD).
//
// Column standardization matters: without it, a single intense sketch bin
// dominates the covariance and its burst becomes a principal component —
// the "normal subspace contamination" failure mode of PCA detectors
// (Ringberg et al.), which at this scale would suppress detection
// entirely. With unit-variance columns, the leading components capture the
// correlated background fluctuation shared by all bins, and an isolated
// burst stays in the residual.
func refSubspaceResiduals(x *linalg.Matrix, tn tuning) []anomaly {
	work := x.Clone()
	refCenterColumns(work)
	refStandardizeColumns(work)
	cov := work.Gram()
	inv := 1.0 / float64(work.Rows-1)
	for i := range cov.Data {
		cov.Data[i] *= inv
	}
	_, vecs, err := linalg.EigenSym(cov)
	if err != nil {
		return nil
	}
	k := tn.subspace
	if k > work.Cols {
		k = work.Cols
	}
	// Residual matrix after projecting each row onto the top-k subspace.
	resVec := linalg.NewMatrix(work.Rows, work.Cols)
	for i := 0; i < work.Rows; i++ {
		row := work.Row(i)
		proj := make([]float64, work.Cols)
		for c := 0; c < k; c++ {
			var dot float64
			for j := 0; j < work.Cols; j++ {
				dot += row[j] * vecs.At(j, c)
			}
			for j := 0; j < work.Cols; j++ {
				proj[j] += dot * vecs.At(j, c)
			}
		}
		for j := 0; j < work.Cols; j++ {
			resVec.Set(i, j, row[j]-proj[j])
		}
	}
	// Score residuals per column: a burst confined to one sketch bin must
	// not be diluted by the noise of the other 31 columns, so each bin's
	// residual series is thresholded against its own robust statistics.
	var out []anomaly
	col := make([]float64, work.Rows)
	for j := 0; j < work.Cols; j++ {
		for i := 0; i < work.Rows; i++ {
			col[i] = resVec.At(i, j)
		}
		med := stats.Median(col)
		scale := 1.4826 * stats.MAD(col)
		if scale < 1e-9 {
			scale = stats.Std(col)
			if scale < 1e-9 {
				continue
			}
		}
		for i := 0; i < work.Rows; i++ {
			if (col[i]-med)/scale > tn.sigma {
				out = append(out, anomaly{bin: i, sketchBin: j})
			}
		}
	}
	return out
}

// refCenterColumns is linalg's former Matrix.CenterColumns, unchanged but
// for the means it returned: it subtracts each column's mean in place.
func refCenterColumns(m *linalg.Matrix) {
	means := make([]float64, m.Cols)
	if m.Rows == 0 {
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] -= means[j]
		}
	}
}

// refStandardizeColumns is the pre-split standardizeColumns: it scales each
// column to unit sample variance (columns with no variance are left
// untouched).
func refStandardizeColumns(m *linalg.Matrix) {
	for j := 0; j < m.Cols; j++ {
		var ss float64
		for i := 0; i < m.Rows; i++ {
			v := m.At(i, j)
			ss += v * v
		}
		if ss < 1e-12 {
			continue
		}
		inv := 1 / math.Sqrt(ss/float64(m.Rows-1))
		for i := 0; i < m.Rows; i++ {
			m.Set(i, j, m.At(i, j)*inv)
		}
	}
}

// refTopHosts is the map-based ranking the package used to carry.
func refTopHosts(counts map[trace.IPv4]int, k int) []trace.IPv4 {
	type hc struct {
		h trace.IPv4
		n int
	}
	all := make([]hc, 0, len(counts))
	for h, n := range counts {
		all = append(all, hc{h, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].h < all[j].h
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]trace.IPv4, k)
	for i := range out {
		out[i] = all[i].h
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
			cfg := mawigen.DefaultConfig(3307 + 17*seed + int64(mi))
			cfg.BackgroundRate = 200
			cfg.Anomalies = anoms
			out = append(out, trace.NewIndex(mawigen.Generate(cfg).Trace))
		}
	}
	short := mawigen.DefaultConfig(3407)
	short.Duration = 5
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
	cfg := mawigen.DefaultConfig(3511)
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

// TestDecideReadsNoIndex: a prepared holds no reference to the index. After
// Prepare, every column Decide could read is overwritten — addresses zeroed,
// every packet moved to the first second — and Decide must still return the
// reference's alarms for every config.
func TestDecideReadsNoIndex(t *testing.T) {
	d := New()
	raised := 0
	for ti, ix := range diffIndexes()[:10] {
		want := make([][]core.Alarm, d.NumConfigs())
		for c := range want {
			var err error
			if want[c], err = refDetect(d, ix, c); err != nil {
				t.Fatal(err)
			}
			raised += len(want[c])
		}
		p, err := d.Prepare(ix)
		if err != nil {
			t.Fatal(err)
		}
		clear(ix.Src)
		clear(ix.TS)
		for c := range want {
			if got, err := p.Decide(c); err != nil || !reflect.DeepEqual(got, want[c]) {
				t.Fatalf("trace %d config %d: after the index was overwritten, Decide = %v, %v; reference %v", ti, c, got, err, want[c])
			}
		}
	}
	if raised == 0 {
		t.Fatal("the corpus raised no alarm: the comparison is vacuous")
	}
}
