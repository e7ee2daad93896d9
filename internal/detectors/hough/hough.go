// Package hough implements the Hough-transform anomaly detector of Fontugne
// and Fukuda (§3.2 (3)): traffic is monitored in 2-D scatter plots where
// anomalous behaviours — scans, floods, heavy flows — appear as lines, and
// the Hough transform identifies those lines in the plots.
//
// Two planes are analyzed: (time, destination-address bucket) and (time,
// source-address bucket). A network scan sweeping destinations draws a
// slanted line, a flood pinned on one host draws a horizontal line, and a
// heavy flow draws horizontal lines in both planes. The packets under each
// detected line are aggregated into sets of flows, the alarm granularity
// the paper attributes to this detector.
package hough

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/sketch"
	"mawilab/internal/trace"
)

// Detector is the Hough-transform detector. It has no settings: its
// parameters are package constants, its configurations the three rows of a
// fixed table.
type Detector struct{}

// The detector's parameters, fixed for every tuning.
const (
	timeBin    = 500_000 // the plot's time quantum, µs
	plotRows   = 128     // address-bucket resolution of the plot
	numAngles  = 48      // θ quantization of the Hough accumulator
	maxFilters = 10      // flows reported per detected line, at most
)

type tuning struct {
	cellMin   int     // packets for a cell to switch "on"
	voteShare float64 // accumulator peak threshold, fraction of time bins
}

// tunings holds the per-configuration (cell activation threshold, minimum
// line votes as a fraction of the time extent).
var tunings = [detectors.NumTunings]tuning{
	detectors.Optimal:      {cellMin: 3, voteShare: 0.30},
	detectors.Sensitive:    {cellMin: 2, voteShare: 0.20},
	detectors.Conservative: {cellMin: 4, voteShare: 0.45},
}

// New returns the detector.
func New() *Detector { return &Detector{} }

// Name implements detectors.Detector.
func (d *Detector) Name() string { return "hough" }

// NumConfigs implements detectors.Detector.
func (d *Detector) NumConfigs() int { return int(detectors.NumTunings) }

// Detect implements detectors.Detector: one Prepare, one Decide.
func (d *Detector) Detect(ix *trace.Index, config int) ([]core.Alarm, error) {
	return detectors.Detect(d, ix, config)
}

// prepared is the tuning-independent rasterization of one index: the two
// plots and the geometry of their shared Hough space. It copies what it
// needs out of the index and holds no reference to it.
type prepared struct {
	d          *Detector
	ax         trace.TimeAxis // the plot's time columns
	diag       float64
	rhoBins    int
	sinT, cosT []float64
	planes     []plane // destination plane first; empty for a too-short trace
}

// plane is one (time, address bucket) plot, kept sparsely: only the cells
// some tuning can switch on, with their packets.
type plane struct {
	dst   bool
	cells []cell   // in (x, y) order
	pkts  []uint64 // the cells' packets, cell by cell: plane address<<16 | destination port
	// lines holds, per configuration, the strongest accumulator peaks of
	// the plane with that tuning's cells switched on.
	lines [detectors.NumTunings][]line
}

// cell is one plot cell; its n packets are pkts[lo : lo+n].
type cell struct {
	x, y, n, lo int32
}

// line is one accumulator peak: angle index, ρ bin and votes.
type line struct {
	a, rb int
	votes int32
}

// Prepare implements detectors.Preparer: both planes rasterized once — the
// sparse list of cells reaching the smallest configured cellMin, each with
// its packets — and voted once: the cells a tuning switches on nest (cells
// holding ≥ 4 packets ⊂ ≥ 3 ⊂ ≥ 2), so one accumulator grown from the
// strictest cellMin to the loosest serves every tuning's peak search. What
// is left to a configuration is claiming the cells under its lines.
func (d *Detector) Prepare(ix *trace.Index) (detectors.Prepared, error) {
	ax, err := trace.NewTimeAxis(ix, timeBin)
	if err != nil {
		return nil, fmt.Errorf("hough: %v s bins: %w", timeBin/1e6, err)
	}
	ax.Bins++ // one spare column past the last packet's, kept for byte identity
	p := &prepared{d: d, ax: ax}
	if ix.Len() == 0 || ax.Bins < 6 {
		return p, nil
	}
	// Hough accumulator over (θ, ρ), ρ resolution = 1 cell.
	p.diag = math.Hypot(float64(ax.Bins), float64(plotRows))
	p.rhoBins = 2*int(p.diag) + 1
	p.sinT = make([]float64, numAngles)
	p.cosT = make([]float64, numAngles)
	for a := range p.sinT {
		theta := math.Pi * float64(a) / float64(numAngles)
		p.sinT[a] = math.Sin(theta)
		p.cosT[a] = math.Cos(theta)
	}
	cellMin := tunings[0].cellMin
	for _, tn := range tunings[1:] {
		cellMin = min(cellMin, tn.cellMin)
	}
	p.planes = []plane{rasterize(ix, ax, cellMin, true), rasterize(ix, ax, cellMin, false)}
	for i := range p.planes {
		p.findLines(&p.planes[i])
	}
	return p, nil
}

// rasterize builds one plane. Timestamps are sorted, so the time coordinate
// x = ax.Bin(TS) is non-decreasing: each x-stripe is one contiguous
// packet range. One plotRows-sized counter array serves every stripe in turn;
// flushing a stripe emits its cells holding at least cellMin packets —
// already in (x, y) order — and deals the stripe's packets out to them, so
// every address is hashed exactly once and a line later reads a cell's
// packets as one contiguous run.
func rasterize(ix *trace.Index, ax trace.TimeAxis, cellMin int, dstPlane bool) plane {
	sk := sketch.New(plotRows, detectors.Seed^uint64(boolToInt(dstPlane))<<17)
	addrs := ix.Src
	if dstPlane {
		addrs = ix.Dst
	}
	pl := plane{dst: dstPlane, pkts: make([]uint64, 0, len(addrs))}
	rowCnt := make([]int32, plotRows)
	next := make([]int32, plotRows) // per row, where its cell's next packet goes; -1 = cell off
	var rows []int32                // the current stripe's packets' rows
	flush := func(x, end int) {
		for y, c := range rowCnt {
			next[y] = -1
			if int(c) >= cellMin {
				next[y] = int32(len(pl.pkts))
				pl.cells = append(pl.cells, cell{int32(x), int32(y), c, next[y]})
				pl.pkts = pl.pkts[:len(pl.pkts)+int(c)]
			}
			rowCnt[y] = 0
		}
		for i, y := range rows {
			if at := next[y]; at >= 0 {
				pi := end - len(rows) + i
				pl.pkts[at] = uint64(addrs[pi])<<16 | uint64(ix.DstPort[pi])
				next[y]++
			}
		}
		rows = rows[:0]
	}
	curX := 0
	for pi, addr := range addrs {
		if x := ax.Bin(ix.TS[pi]); x != curX {
			flush(curX, pi)
			curX = x
		}
		y := sk.Bin(addr)
		rows = append(rows, int32(y))
		rowCnt[y]++
	}
	flush(curX, len(addrs))
	return pl
}

// Decide implements detectors.Prepared.
func (p *prepared) Decide(config int) ([]core.Alarm, error) {
	if err := detectors.CheckConfig(p.d, config); err != nil {
		return nil, err
	}
	var alarms []core.Alarm
	for i := range p.planes {
		alarms = append(alarms, p.decidePlane(&p.planes[i], config)...)
	}
	return alarms, nil
}

// rho is the ρ of plot point (x, y) at the angle with cosine cos and sine
// sin. Each product is its own float64 conversion, so no architecture fuses
// the sum into a multiply-add and every vote lands in the same ρ bin
// everywhere.
func rho(x, y, cos, sin float64) float64 {
	return float64(x*cos) + float64(y*sin)
}

// findLines runs the Hough transform of one plane for every tuning and
// records each tuning's lines.
//
// This is the sparse formulation: identical output to the dense
// map-rasterized reference (kept verbatim in the package tests and pinned
// by randomized equality tests across all tunings), without the per-packet
// map work. Votes go one angle row at a time, and each angle keeps only the
// ρ bins the plane's cells can reach (see newAccumulator), so the
// accumulator follows the span of the plane's cells, not the span of the
// time axis.
func (p *prepared) findLines(pl *plane) {
	if len(pl.cells) == 0 {
		return
	}
	diag := p.diag
	acc := p.newAccumulator(float64(pl.cells[0].x), float64(pl.cells[len(pl.cells)-1].x))

	// Tunings from the strictest cellMin to the loosest: each one adds the
	// cells it switches on beyond those already voted, so every cell votes
	// once. Votes are counts, so the accumulator a tuning's peaks are read
	// from is exactly what voting its cells alone would have built.
	var order [detectors.NumTunings]int
	for c := range order {
		order[c] = c
	}
	sort.SliceStable(order[:], func(i, j int) bool {
		return tunings[order[i]].cellMin > tunings[order[j]].cellMin
	})
	voted := math.MaxInt // cells holding at least this many packets have voted
	var tier [][2]float64
	for _, config := range order {
		tn := tunings[config]
		tier = tier[:0]
		for _, c := range pl.cells {
			if n := int(c.n); n >= tn.cellMin && n < voted {
				tier = append(tier, [2]float64{float64(c.x), float64(c.y)})
			}
		}
		for a := range numAngles {
			row, lo := acc.row(a), acc.lo[a]
			c, s := p.cosT[a], p.sinT[a]
			for _, xy := range tier {
				if i := int(rho(xy[0], xy[1], c, s)+diag) - lo; i >= 0 && i < len(row) {
					row[i]++
				}
			}
		}
		voted = min(voted, tn.cellMin)

		minVotes := int32(math.Max(4, tn.voteShare*float64(p.ax.Bins)))
		var lines []line
		for a := range numAngles {
			for i, v := range acc.row(a) {
				// Local maximum over a small neighbourhood to avoid
				// reporting the same line many times.
				if rb := acc.lo[a] + i; v >= minVotes && isLocalMax(acc, a, rb, v) {
					lines = append(lines, line{a, rb, v})
				}
			}
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
			lines = lines[:8] // strongest structures only
		}
		pl.lines[config] = lines
	}
}

// accumulator is the Hough vote count over (θ, ρ), kept per angle over the
// ρ bins a plane's cells can reach: angle a's bins lo[a], lo[a]+1, … are
// votes[off[a]:off[a+1]].
type accumulator struct {
	votes []int32
	lo    []int
	off   []int // len(lo)+1 entries
}

// newAccumulator returns the empty accumulator of a plane whose cells lie in
// the columns x0 through x1. Per angle it keeps the ρ bins those cells can
// vote into, x over [x0, x1] and y over the plot rows: sin θ ≥ 0 for θ in
// [0, π), so ρ is smallest at y = 0 and largest at the top row. The bounds
// are the vote's own expression at those corners, and rounding is monotone,
// so every vote lands inside them with no slack.
func (p *prepared) newAccumulator(x0, x1 float64) *accumulator {
	acc := &accumulator{lo: make([]int, numAngles), off: make([]int, numAngles+1)}
	for a := range numAngles {
		c, s := p.cosT[a], p.sinT[a]
		lo := min(rho(x0, 0, c, s), rho(x1, 0, c, s))
		hi := max(rho(x0, plotRows-1, c, s), rho(x1, plotRows-1, c, s))
		first, last := max(int(lo+p.diag), 0), min(int(hi+p.diag), p.rhoBins-1)
		acc.lo[a] = first
		acc.off[a+1] = acc.off[a] + max(last-first+1, 0)
	}
	acc.votes = make([]int32, acc.off[numAngles])
	return acc
}

// row returns angle a's reachable bins: ρ bin rb is row[rb−lo[a]].
func (h *accumulator) row(a int) []int32 { return h.votes[h.off[a]:h.off[a+1]] }

// at returns the votes in ρ bin rb at angle a: 0 outside the angle's reach,
// the count a dense accumulator holds there.
func (h *accumulator) at(a, rb int) int32 {
	if row, i := h.row(a), rb-h.lo[a]; i >= 0 && i < len(row) {
		return row[i]
	}
	return 0
}

// decidePlane turns one tuning's lines on one prepared plane into alarms.
func (p *prepared) decidePlane(pl *plane, config int) []core.Alarm {
	d := p.d
	lines := pl.lines[config]
	if len(lines) == 0 {
		return nil
	}
	cellMin := tunings[config].cellMin
	var alarms []core.Alarm
	claimed := make([]bool, len(pl.cells))
	var pkts []uint64
	for _, ln := range lines {
		// Collect the on-cells lying near the line and aggregate per plane
		// host: a scan is thousands of one-packet flows sharing a source,
		// so attribution must go through the host the plane is keyed on,
		// not through individual flows. A claimed cell hands over its
		// packets as packed (host<<16 | destination port) keys; since flow
		// keys copy packet header fields verbatim, per-packet attribution
		// sums to exactly the per-flow totals the dense path aggregated.
		cos, sin, lnRho := p.cosT[ln.a], p.sinT[ln.a], float64(ln.rb)-p.diag
		pkts = pkts[:0]
		var minX, maxX = math.MaxInt32, -1
		for ci, c := range pl.cells {
			if int(c.n) < cellMin || claimed[ci] {
				continue
			}
			if math.Abs(rho(float64(c.x), float64(c.y), cos, sin)-lnRho) > 1.0 {
				continue
			}
			claimed[ci] = true
			pkts = append(pkts, pl.pkts[c.lo:c.lo+c.n]...)
			minX = min(minX, int(c.x))
			maxX = max(maxX, int(c.x))
		}
		if len(pkts) == 0 {
			continue
		}
		// Sorted, the keys group by host and, within a host, by port.
		slices.Sort(pkts)
		hosts := make([]trace.IPv4, len(pkts))
		for i, k := range pkts {
			hosts[i] = trace.IPv4(k >> 16)
		}
		alarm := core.Alarm{
			Detector: d.Name(),
			Config:   config,
			Score:    float64(ln.votes),
			Note:     planeName(pl.dst) + " line",
		}
		from, to := p.ax.Interval(minX, maxX)
		for _, host := range sketch.TopHosts(hosts, maxFilters) {
			f := trace.NewFilter().WithInterval(from, to)
			if pl.dst {
				f = f.WithDst(host)
			} else {
				f = f.WithSrc(host)
			}
			// Narrow to the dominant destination port when one stands out:
			// the aggregated flow set then reads like <host, *, *, port>.
			lo, _ := slices.BinarySearch(pkts, uint64(host)<<16)
			hi, _ := slices.BinarySearch(pkts, (uint64(host)+1)<<16)
			if port, share := dominantPort(pkts[lo:hi]); share >= 0.6 {
				f = f.WithDstPort(port)
			}
			alarm.Filters = append(alarm.Filters, f)
		}
		alarms = append(alarms, alarm)
	}
	return alarms
}

// dominantPort returns the destination port carrying the largest packet
// share of one host's packets — sorted (host<<16 | port) keys, so equal ports
// are adjacent — with that share; ties go to the smaller port.
func dominantPort(pkts []uint64) (uint16, float64) {
	best, bestN := uint16(0), 0
	for i := 0; i < len(pkts); {
		j := i + 1
		for j < len(pkts) && pkts[j] == pkts[i] {
			j++
		}
		if j-i > bestN {
			best, bestN = uint16(pkts[i]), j-i
		}
		i = j
	}
	if bestN == 0 {
		return 0, 0
	}
	return best, float64(bestN) / float64(len(pkts))
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func planeName(dst bool) string {
	if dst {
		return "dst"
	}
	return "src"
}

// isLocalMax reports whether the accumulator value v at (a, rb) is maximal
// over a 3×5 neighbourhood (ties resolved toward the smaller index so one
// cell wins). A neighbour outside an angle's reach reads as 0, and a peak
// has at least 4 votes, so only reachable bins can beat it.
func isLocalMax(acc *accumulator, a, rb int, v int32) bool {
	for na := max(a-1, 0); na <= min(a+1, len(acc.lo)-1); na++ {
		for nr := rb - 2; nr <= rb+2; nr++ {
			if na == a && nr == rb {
				continue
			}
			nv := acc.at(na, nr)
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
