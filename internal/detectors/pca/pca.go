// Package pca implements the PCA-based anomaly detector (§3.2 (1)):
// Lakhina-style principal-component subspace separation applied to sketeched
// traffic, following Li et al. and Kanda et al. so that anomalous *sources*
// can be reported despite PCA's aggregate view.
//
// The traffic is hashed into several independent sketches of the source
// address space. For each sketch, the per-bin packet-count time series form
// a matrix whose top principal components model normal behaviour; time bins
// with a large residual are anomalous. The sketch bins driving the residual
// are intersected across the independent sketches to recover the source IPs
// responsible, which become host alarms.
package pca

import (
	"fmt"
	"math"
	"slices"

	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/linalg"
	"mawilab/internal/sketch"
	"mawilab/internal/stats"
	"mawilab/internal/trace"
)

// Detector is the sketch+PCA detector. It has no settings: its parameters
// are package constants, its configurations the three rows of a fixed table.
type Detector struct{}

// The detector's parameters, fixed for every tuning.
const (
	timeBin     = 1_000_000 // aggregation interval, µs
	sketchWidth = 32        // buckets per sketch
	numSketches = 4         // independent sketches
	minAgree    = 3         // sketches that must implicate a host before it is reported
)

// tuning is one PCA parameter set.
type tuning struct {
	// subspace is the number of principal components spanning the normal
	// subspace.
	subspace int
	// sigma is the residual threshold in robust standard deviations
	// (median + sigma·1.4826·MAD).
	sigma float64
}

// tunings holds the per-configuration parameter sets; index with
// detectors.Optimal/Sensitive/Conservative.
var tunings = [detectors.NumTunings]tuning{
	detectors.Optimal:      {subspace: 3, sigma: 4.0},
	detectors.Sensitive:    {subspace: 2, sigma: 3.0},
	detectors.Conservative: {subspace: 4, sigma: 5.0},
}

// New returns the detector.
func New() *Detector { return &Detector{} }

// Name implements detectors.Detector.
func (d *Detector) Name() string { return "pca" }

// NumConfigs implements detectors.Detector.
func (d *Detector) NumConfigs() int { return int(detectors.NumTunings) }

// Detect implements detectors.Detector: one Prepare, one Decide.
func (d *Detector) Detect(ix *trace.Index, config int) ([]core.Alarm, error) {
	return detectors.Detect(d, ix, config)
}

// prepared is everything the three tunings need from one index, decided
// once: per tuning, the (sketch, time bin, sketch bin) cells its residual
// threshold flags, and for every cell any tuning flags, its top hosts.
// Prepare reads what it needs out of the index and holds no reference to it.
type prepared struct {
	d     *Detector
	ax    trace.TimeAxis
	cells []cell
	// hosts holds every cell's top hosts back to back: cell c's are
	// hosts[c.lo:c.hi].
	hosts []trace.IPv4
	// flagged[config] lists the cells (indices into cells) that config's
	// tuning flags, over every sketch.
	flagged [detectors.NumTunings][]int32
}

// cell is one flagged (sketch, time bin, sketch bin) cell: its time bin and
// the span of its top hosts in prepared.hosts.
type cell struct {
	bin    int32
	lo, hi int32
}

// Prepare implements detectors.Preparer. Per sketch it rasterizes the
// trace into a centred, standardized (time bin × sketch bin) matrix, takes
// the eigenvectors of its covariance, and in one pass over the rows keeps a
// running projection onto the top components, writing each tuning's
// residual when the projection reaches that tuning's subspace size. Each
// tuning then thresholds its residuals per column, and every cell any
// tuning flags gets its top hosts from one scan of its time bin's packets.
// What is left for Decide is assembling votes.
//
// Column standardization matters: without it, a single intense sketch bin
// dominates the covariance and its burst becomes a principal component —
// the "normal subspace contamination" failure mode of PCA detectors
// (Ringberg et al.), which at this scale would suppress detection
// entirely. With unit-variance columns, the leading components capture the
// correlated background fluctuation shared by all bins, and an isolated
// burst stays in the residual.
//
// The matrix holds the axis's occupied bins only, First onward. The First
// empty bins ahead of them — a stream segment's age — are identical rows,
// so they are carried as one virtual row, row 0, that stands for all of
// them: each statistic sums it First times in closed form (stats.SumRun and
// the run forms of MeanVar and MedianMAD), which is the same float64 bits
// the dense rows give. A batch day or an upload is the case First = 0.
func (d *Detector) Prepare(ix *trace.Index) (detectors.Prepared, error) {
	ax, err := trace.NewTimeAxis(ix, timeBin)
	if err != nil {
		return nil, fmt.Errorf("pca: %v s bins: %w", timeBin/1e6, err)
	}
	p := &prepared{d: d, ax: ax}
	if ax.Bins < 8 || ix.Len() == 0 {
		return p, nil // too short for a meaningful subspace
	}
	s := newSubspaceScratch(ax, ix.Len())
	for si := 0; si < numSketches; si++ {
		sk := sketch.New(sketchWidth, detectors.Seed+uint64(si)*0x9e37)
		clear(s.work.Data)
		for pi, src := range ix.Src {
			b := sk.Bin(src)
			s.bins[pi] = uint16(b)
			s.work.Data[(ax.Bin(ix.TS[pi])-s.lead+1)*sketchWidth+b]++
		}
		s.standardize()
		_, vecs, err := linalg.EigenSym(s.covariance())
		if err != nil {
			continue // the sketch implicates nothing
		}
		s.residuals(vecs)
		p.addCells(ix, s)
	}
	return p, nil
}

// subspaceScratch is the memory Prepare reuses across its sketches, which
// all share one shape.
type subspaceScratch struct {
	rows int      // the axis's bins: the rows of the dense matrix
	lead int      // its leading empty rows, the axis's First
	bins []uint16 // every packet's bin in the current sketch
	// work is the virtual row of the lead empty bins followed by the
	// occupied bins, (rows−lead+1)×sketchWidth, standardized.
	work *linalg.Matrix
	// res[t] is tuning t's residuals over work's rows, column-major: a
	// sketch bin's series is contiguous, the virtual row's residual first.
	res     [detectors.NumTunings][]float64
	proj    []float64 // one row's running projection
	scratch []float64 // stats.MedianMADRun's working copies of one column
	// id is the cell index of each (occupied time bin, sketch bin) of the
	// current sketch, row-major: unflagged where no tuning flags it, pending
	// until its hosts are recovered.
	id      []int32
	flagged [detectors.NumTunings][]int32 // flagged cells, row-major offsets into id
	packets [sketchWidth][]trace.IPv4     // one time bin's packets per sketch bin
}

// Cell ids of subspaceScratch.id before a cell is recorded.
const (
	unflagged = -1
	pending   = -2
)

func newSubspaceScratch(ax trace.TimeAxis, packets int) *subspaceScratch {
	occupied := ax.Bins - ax.First()
	s := &subspaceScratch{
		rows:    ax.Bins,
		lead:    ax.First(),
		bins:    make([]uint16, packets),
		work:    linalg.NewMatrix(occupied+1, sketchWidth),
		proj:    make([]float64, sketchWidth),
		scratch: make([]float64, 2*occupied),
		id:      make([]int32, occupied*sketchWidth),
	}
	for t := range s.res {
		s.res[t] = make([]float64, (occupied+1)*sketchWidth)
	}
	return s
}

// standardize centres each column of the dense matrix and scales it to unit
// sample variance (a column with no variance is only centred), on work: row
// 0, a zero count like every empty bin, enters each column's sum of squares
// s.lead times.
func (s *subspaceScratch) standardize() {
	m := s.work
	for j := 0; j < m.Cols; j++ {
		var sum float64
		for i := 0; i < m.Rows; i++ {
			sum += m.Data[i*m.Cols+j]
		}
		mean := sum / float64(s.rows)
		var ss float64
		for i := 0; i < m.Rows; i++ {
			v := m.Data[i*m.Cols+j] - mean
			m.Data[i*m.Cols+j] = v
			if i == 0 {
				ss = stats.SumRun(float64(v*v), s.lead)
			} else {
				ss += float64(v * v)
			}
		}
		if ss < 1e-12 {
			continue
		}
		inv := 1 / math.Sqrt(ss/float64(s.rows-1))
		for i := 0; i < m.Rows; i++ {
			m.Data[i*m.Cols+j] = float64(m.Data[i*m.Cols+j] * inv)
		}
	}
}

// covariance returns the sample covariance of the dense matrix's columns:
// its Gram matrix — row 0 summed s.lead times, then the occupied rows — over
// rows−1.
func (s *subspaceScratch) covariance() *linalg.Matrix {
	m := s.work
	g := linalg.NewMatrix(m.Cols, m.Cols)
	lead := m.Row(0)
	for a, va := range lead {
		if va == 0 {
			continue
		}
		ga := g.Row(a)
		for b := a; b < m.Cols; b++ {
			ga[b] = stats.SumRun(float64(va*lead[b]), s.lead)
		}
	}
	for i := 1; i < m.Rows; i++ {
		row := m.Row(i)
		for a, va := range row {
			if va == 0 {
				continue
			}
			ga := g.Row(a)
			for b := a; b < m.Cols; b++ {
				ga[b] += float64(va * row[b])
			}
		}
	}
	inv := 1.0 / float64(s.rows-1)
	for a := 0; a < m.Cols; a++ {
		for b := 0; b < a; b++ {
			g.Set(a, b, g.At(b, a))
		}
	}
	for i := range g.Data {
		g.Data[i] = float64(g.Data[i] * inv)
	}
	return g
}

// residuals projects every row of the standardized matrix onto the leading
// eigenvectors (vecs' columns) and writes each tuning's residual — the row
// minus its projection onto the top tuning.subspace components, at least
// one — into s.res. The projection runs once, up to the largest subspace,
// and a tuning's residual is taken when the running sum reaches its size:
// the same operations in the same order as a projection per tuning.
func (s *subspaceScratch) residuals(vecs *linalg.Matrix) {
	rows, cols := s.work.Rows, s.work.Cols
	var ks [detectors.NumTunings]int
	maxK := 0
	for t, tn := range tunings {
		ks[t] = min(tn.subspace, cols)
		maxK = max(maxK, ks[t])
	}
	comps := make([]float64, maxK*cols)
	for c := 0; c < maxK; c++ {
		for j := 0; j < cols; j++ {
			comps[c*cols+j] = vecs.Data[j*cols+c]
		}
	}
	proj := s.proj
	for i := 0; i < rows; i++ {
		row := s.work.Row(i)
		clear(proj)
		for c := 0; c < maxK; c++ {
			comp := comps[c*cols : (c+1)*cols]
			var dot float64
			for j, v := range row {
				dot += float64(v * comp[j])
			}
			for j, v := range comp {
				proj[j] += float64(dot * v)
			}
			for t, k := range ks {
				if k == c+1 {
					res := s.res[t]
					for j, v := range row {
						res[j*rows+i] = v - proj[j]
					}
				}
			}
		}
	}
}

// addCells thresholds each tuning's residuals and records, for every cell
// any tuning flags, its top hosts: one scan of each flagged time bin's
// packet window, bucketed by sketch bin. An empty bin holds no host to
// recover, so only the occupied bins are thresholded; the virtual row
// enters each column's statistics s.lead times.
func (p *prepared) addCells(ix *trace.Index, s *subspaceScratch) {
	rows, cols := s.work.Rows, s.work.Cols
	// Score residuals per column: a burst confined to one sketch bin must
	// not be diluted by the noise of the other 31 columns, so each bin's
	// residual series is thresholded against its own robust statistics.
	for i := range s.id {
		s.id[i] = unflagged
	}
	for t, tn := range tunings {
		s.flagged[t] = s.flagged[t][:0]
		res := s.res[t]
		for j := 0; j < cols; j++ {
			lead, col := res[j*rows], res[j*rows+1:(j+1)*rows]
			med, mad := stats.MedianMADRun(lead, s.lead, col, s.scratch)
			scale := 1.4826 * mad
			if scale < 1e-9 {
				_, variance := stats.MeanVarRun(lead, s.lead, col)
				scale = math.Sqrt(variance)
				if scale < 1e-9 {
					continue
				}
			}
			for i, v := range col {
				if (v-med)/scale > tn.sigma {
					s.flagged[t] = append(s.flagged[t], int32(i*cols+j))
					s.id[i*cols+j] = pending
				}
			}
		}
	}
	// Recover hosts, time bin by time bin: one scan of the bin's window
	// keeps the packets of its flagged sketch bins.
	for i := 0; i < rows-1; i++ {
		ids := s.id[i*cols : (i+1)*cols]
		if !slices.Contains(ids, pending) {
			continue
		}
		tb := s.lead + i
		lo, hi := ix.Window(p.ax.Interval(tb, tb))
		for k, b := range s.bins[lo:hi] {
			if ids[b] == pending {
				s.packets[b] = append(s.packets[b], ix.Src[lo+k])
			}
		}
		for sb, id := range ids {
			if id != pending {
				continue
			}
			c := cell{bin: int32(tb), lo: int32(len(p.hosts))}
			p.hosts = append(p.hosts, sketch.TopHosts(s.packets[sb], 3)...)
			c.hi = int32(len(p.hosts))
			ids[sb] = int32(len(p.cells))
			p.cells = append(p.cells, c)
			s.packets[sb] = s.packets[sb][:0]
		}
	}
	for t, at := range s.flagged {
		for _, off := range at {
			p.flagged[t] = append(p.flagged[t], s.id[off])
		}
	}
}

// Decide implements detectors.Prepared: it assembles the tuning's votes,
// one per (host, time bin) a flagged cell implicates, and merges them.
func (p *prepared) Decide(config int) ([]core.Alarm, error) {
	d := p.d
	if err := detectors.CheckConfig(d, config); err != nil {
		return nil, err
	}
	// One vote per (host, time bin) a sketch implicates, packed host-major
	// so that sorting groups a host's bins in ascending order.
	votes := make([]uint64, 0, 3*len(p.flagged[config]))
	for _, ci := range p.flagged[config] {
		c := p.cells[ci]
		for _, h := range p.hosts[c.lo:c.hi] {
			votes = append(votes, uint64(h)<<32|uint64(c.bin))
		}
	}
	slices.Sort(votes)

	// Hosts implicated by enough independent sketches become alarms; merge
	// contiguous time bins per host.
	var alarms []core.Alarm
	var bins []int
	emit := func(h trace.IPv4) {
		for _, iv := range mergeBins(bins) {
			alarms = append(alarms, core.Alarm{
				Detector: d.Name(),
				Config:   config,
				Filters: []trace.Filter{
					trace.NewFilter().WithSrc(h).WithInterval(p.ax.Interval(iv[0], iv[1])),
				},
				Note: "pca residual",
			})
		}
		bins = bins[:0]
	}
	for i := 0; i < len(votes); {
		j := i + 1
		for j < len(votes) && votes[j] == votes[i] {
			j++
		}
		h := trace.IPv4(votes[i] >> 32)
		if j-i >= minAgree {
			bins = append(bins, int(uint32(votes[i])))
		}
		if j == len(votes) || trace.IPv4(votes[j]>>32) != h {
			emit(h)
		}
		i = j
	}
	return alarms, nil
}

// mergeBins merges sorted time-bin indices into contiguous [first,last]
// intervals.
func mergeBins(bins []int) [][2]int {
	var out [][2]int
	for i := 0; i < len(bins); {
		j := i
		for j+1 < len(bins) && bins[j+1] == bins[j]+1 {
			j++
		}
		out = append(out, [2]int{bins[i], bins[j]})
		i = j + 1
	}
	return out
}
