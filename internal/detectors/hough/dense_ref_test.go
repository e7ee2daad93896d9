package hough

// This file keeps the original dense (map-rasterized, full-accumulator)
// detectPlane verbatim as a reference implementation, and pins the sparse
// production path to it: on randomized traces, across every tuning, the two
// must emit identical alarms. Any divergence — ordering, tie-breaking,
// aggregation totals, float rounding — fails here before it can drift a
// golden fixture.

import (
	"cmp"
	"context"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/mawigen"
	"mawilab/internal/sketch"
	"mawilab/internal/trace"
)

// refBin is timeBin in seconds: the dense reference bins float seconds,
// float64(TS)/1e6, as the detector did before its axis moved to integer µs.
const refBin = timeBin / 1e6

// cellKey addresses one plot cell in the dense reference.
type cellKey struct{ x, y int }

// denseDetect mirrors Detector.Detect but routes through densePlane.
func denseDetect(d *Detector, ix *trace.Index, config int) ([]core.Alarm, error) {
	if err := detectors.CheckConfig(d, config); err != nil {
		return nil, err
	}
	cols := int(math.Ceil(ix.Duration()/refBin)) + 1
	if ix.Len() == 0 || cols < 6 {
		return nil, nil
	}
	tn := tunings[config]
	var alarms []core.Alarm
	alarms = append(alarms, densePlane(d, ix, config, tn, cols, true)...)
	alarms = append(alarms, densePlane(d, ix, config, tn, cols, false)...)
	return alarms, nil
}

// densePlane is the pre-sparse detectPlane, unchanged.
func densePlane(d *Detector, ix *trace.Index, config int, tn tuning, cols int, dstPlane bool) []core.Alarm {
	sk := sketch.New(plotRows, detectors.Seed^uint64(boolToInt(dstPlane))<<17)
	counts := make(map[cellKey]int)
	cellFlows := make(map[cellKey]map[int32]int)
	addrs := ix.Src
	if dstPlane {
		addrs = ix.Dst
	}
	for pi := 0; pi < ix.Len(); pi++ {
		c := cellKey{x: int(float64(ix.TS[pi]) / 1e6 / refBin), y: sk.Bin(addrs[pi])}
		counts[c]++
		m := cellFlows[c]
		if m == nil {
			m = make(map[int32]int)
			cellFlows[c] = m
		}
		m[ix.FlowIDOf(pi)]++
	}
	var on []cellKey
	for c, n := range counts {
		if n >= tn.cellMin {
			on = append(on, c)
		}
	}
	if len(on) == 0 {
		return nil
	}
	sort.Slice(on, func(i, j int) bool {
		if on[i].x != on[j].x {
			return on[i].x < on[j].x
		}
		return on[i].y < on[j].y
	})

	diag := math.Hypot(float64(cols), float64(plotRows))
	rhoBins := 2*int(diag) + 1
	acc := make([][]int32, numAngles)
	sinT := make([]float64, numAngles)
	cosT := make([]float64, numAngles)
	for a := 0; a < numAngles; a++ {
		theta := math.Pi * float64(a) / float64(numAngles)
		sinT[a] = math.Sin(theta)
		cosT[a] = math.Cos(theta)
		acc[a] = make([]int32, rhoBins)
	}
	for _, c := range on {
		for a := 0; a < numAngles; a++ {
			rho := float64(c.x)*cosT[a] + float64(c.y)*sinT[a]
			rb := int(rho + diag)
			if rb >= 0 && rb < rhoBins {
				acc[a][rb]++
			}
		}
	}

	minVotes := int32(math.Max(4, tn.voteShare*float64(cols)))
	type line struct {
		a, rb int
		votes int32
	}
	var lines []line
	for a := 0; a < numAngles; a++ {
		for rb := 0; rb < rhoBins; rb++ {
			v := acc[a][rb]
			if v < minVotes {
				continue
			}
			if denseLocalMax(acc, a, rb, v) {
				lines = append(lines, line{a, rb, v})
			}
		}
	}
	if len(lines) == 0 {
		return nil
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].votes != lines[j].votes {
			return lines[i].votes > lines[j].votes
		}
		if lines[i].a != lines[j].a {
			return lines[i].a < lines[j].a
		}
		return lines[i].rb < lines[j].rb
	})
	if len(lines) > 8 {
		lines = lines[:8]
	}

	var alarms []core.Alarm
	claimed := make(map[cellKey]bool)
	for _, ln := range lines {
		hostPkts := make(map[trace.IPv4]int)
		hostPorts := make(map[trace.IPv4]map[uint16]int)
		var minX, maxX = math.MaxInt32, -1
		for _, c := range on {
			if claimed[c] {
				continue
			}
			rho := float64(c.x)*cosT[ln.a] + float64(c.y)*sinT[ln.a]
			if math.Abs(rho-(float64(ln.rb)-diag)) > 1.0 {
				continue
			}
			claimed[c] = true
			for fid, n := range cellFlows[c] {
				k := ix.Flow(int(fid))
				host := k.Src
				if dstPlane {
					host = k.Dst
				}
				hostPkts[host] += n
				pm := hostPorts[host]
				if pm == nil {
					pm = make(map[uint16]int)
					hostPorts[host] = pm
				}
				pm[k.DstPort] += n
			}
			if c.x < minX {
				minX = c.x
			}
			if c.x > maxX {
				maxX = c.x
			}
		}
		if len(hostPkts) == 0 {
			continue
		}
		alarm := core.Alarm{
			Detector: d.Name(),
			Config:   config,
			Score:    float64(ln.votes),
			Note:     planeName(dstPlane) + " line",
		}
		from := float64(minX) * refBin
		to := float64(maxX+1) * refBin
		for _, host := range denseTopHosts(hostPkts, maxFilters) {
			f := trace.NewFilter().WithInterval(int64(from*1e6), int64(to*1e6))
			if dstPlane {
				f = f.WithDst(host)
			} else {
				f = f.WithSrc(host)
			}
			if port, share := denseDominantPort(hostPorts[host]); share >= 0.6 {
				f = f.WithDstPort(port)
			}
			alarm.Filters = append(alarm.Filters, f)
		}
		alarms = append(alarms, alarm)
	}
	return alarms
}

// denseDominantPort is the map-based dominantPort the dense path used.
func denseDominantPort(ports map[uint16]int) (uint16, float64) {
	total := 0
	best := uint16(0)
	bestN := -1
	for p, n := range ports {
		total += n
		if n > bestN || (n == bestN && p < best) {
			best, bestN = p, n
		}
	}
	if total == 0 {
		return 0, 0
	}
	return best, float64(bestN) / float64(total)
}

// denseTopHosts is the map-based host ranking the dense path used: up to k
// hosts by descending packet count (ties broken by address).
func denseTopHosts(counts map[trace.IPv4]int, k int) []trace.IPv4 {
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

func denseLocalMax(acc [][]int32, a, rb int, v int32) bool {
	for da := -1; da <= 1; da++ {
		na := a + da
		if na < 0 || na >= len(acc) {
			continue
		}
		for dr := -2; dr <= 2; dr++ {
			nr := rb + dr
			if nr < 0 || nr >= len(acc[na]) || (da == 0 && dr == 0) {
				continue
			}
			nv := acc[na][nr]
			if nv > v {
				return false
			}
			if nv == v && (na < a || (na == a && nr < rb)) {
				return false
			}
		}
	}
	return true
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
	cfg := mawigen.DefaultConfig(2503)
	cfg.Duration, cfg.BackgroundRate = 55, 50
	cfg.Anomalies = []mawigen.Spec{{Kind: mawigen.KindICMPFlood, Start: 40, Duration: 15, Rate: 300}}
	tr := mawigen.Generate(cfg).Trace
	last := tr.Packets[tr.Len()-1]
	last.TS = 60e6
	tr.Append(last)
	return trace.NewIndex(tr)
}

// rowZeroIndex returns a quiet 30 s day with a flood on a destination the
// destination plane plots in row 0: its horizontal line peaks at ρ ≈ 0, on
// the lowest ρ bin the peak search scans at θ = π/2, so a reachable range
// one bin short at its low end loses the line.
func rowZeroIndex() *trace.Index {
	cfg := mawigen.DefaultConfig(3307)
	cfg.Duration, cfg.BackgroundRate = 30, 40
	tr := mawigen.Generate(cfg).Trace
	sk := sketch.New(plotRows, detectors.Seed^1<<17) // the destination plane's
	victim := trace.IPv4(0xC0A80001)
	for sk.Bin(victim) != 0 {
		victim++
	}
	for ts := int64(0); ts < 30e6; ts += 50e3 {
		tr.Append(trace.Packet{TS: ts, Src: 0x0A000001, Dst: victim, SrcPort: 4000, DstPort: 80, Len: 40, Proto: trace.TCP})
	}
	slices.SortStableFunc(tr.Packets, func(a, b trace.Packet) int { return cmp.Compare(a.TS, b.TS) })
	return trace.NewIndex(tr)
}

// TestSparseMatchesDense pins the sparse, prepared path to the dense
// reference on randomized traces across every tuning: Detect, and one
// Prepare answering every Decide, must both equal the dense alarms exactly.
// Several seeds and anomaly mixes exercise empty planes, single lines,
// overlapping lines, and the claimed-cell dedup between lines; an empty trace
// and one below the minimum span exercise the unprepared plane; a line in
// plot row 0 sits on the edge of the ρ range the peak search scans. Every
// tuning is decided from one Prepare, so a decision that disturbed the
// shared prepared state would surface as a mismatch too.
func TestSparseMatchesDense(t *testing.T) {
	specs := [][]mawigen.Spec{
		nil, // background only
		{{Kind: mawigen.KindPortScan, Start: 10, Duration: 25, Rate: 120}},
		{{Kind: mawigen.KindICMPFlood, Start: 15, Duration: 20, Rate: 200}},
		{
			{Kind: mawigen.KindPortScan, Start: 5, Duration: 30, Rate: 90},
			{Kind: mawigen.KindICMPFlood, Start: 20, Duration: 15, Rate: 150},
			{Kind: mawigen.KindElephant, Start: 0, Duration: 40, Rate: 60},
		},
	}
	var indexes []*trace.Index
	for _, anoms := range specs {
		for _, seed := range []int64{401, 877, 1229, 1601, 2003} {
			cfg := mawigen.DefaultConfig(seed)
			cfg.BackgroundRate = 200
			cfg.Anomalies = anoms
			indexes = append(indexes, trace.NewIndex(mawigen.Generate(cfg).Trace))
		}
	}
	short := mawigen.DefaultConfig(2411)
	short.Duration = 2
	indexes = append(indexes, trace.NewIndex(&trace.Trace{}), trace.NewIndex(mawigen.Generate(short).Trace))
	indexes = append(indexes, streamedSegments(t)...)
	indexes = append(indexes, edgeIndex(), rowZeroIndex())

	d := New()
	raised := 0
	for ti, ix := range indexes {
		p, err := d.Prepare(ix)
		if err != nil {
			t.Fatal(err)
		}
		for cfgID := 0; cfgID < d.NumConfigs(); cfgID++ {
			want, err := denseDetect(d, ix, cfgID)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Detect(ix, cfgID)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trace %d config %d: Detect\n%v\ndense\n%v", ti, cfgID, got, want)
			}
			decided, err := p.Decide(cfgID)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(decided, want) {
				t.Fatalf("trace %d config %d: Decide\n%v\ndense\n%v", ti, cfgID, decided, want)
			}
			raised += len(want)
		}
	}
	if raised == 0 {
		t.Fatal("the corpus raised no alarm: the comparison is vacuous")
	}
}
