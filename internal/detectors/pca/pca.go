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
	timeBin     = 1.0 // aggregation interval, seconds
	sketchWidth = 32  // buckets per sketch
	numSketches = 4   // independent sketches
	minAgree    = 3   // sketches that must implicate a host before it is reported
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

// prepared is the tuning-independent analysis of one index: per sketch, the
// standardized traffic matrix and its principal components. Decide re-reads
// the index's source column to recover hosts, so a prepared is valid only
// until the index is released.
type prepared struct {
	d        *Detector
	ix       *trace.Index
	ax       trace.TimeAxis
	sketches []sketchSpace
}

// sketchSpace is one sketch's view of the trace.
type sketchSpace struct {
	// bins is every packet's sketch bin, kept from the rasterization so
	// that Decide recovers a cell's hosts by comparing bins over the
	// cell's time window instead of hashing every address again.
	bins []uint16
	// work is the (time bin × sketch bin) packet-count matrix, columns
	// centred and scaled to unit variance.
	work *linalg.Matrix
	// comps holds the eigenvectors of work's covariance as rows, by
	// descending eigenvalue; nil when the decomposition failed, in which
	// case the sketch implicates nothing.
	comps *linalg.Matrix
}

// Prepare implements detectors.Preparer: per sketch, the rasterized,
// centred, standardized matrix and the eigenvectors of its covariance. A
// configuration is a subspace size and a residual threshold over them.
//
// Column standardization matters: without it, a single intense sketch bin
// dominates the covariance and its burst becomes a principal component —
// the "normal subspace contamination" failure mode of PCA detectors
// (Ringberg et al.), which at this scale would suppress detection
// entirely. With unit-variance columns, the leading components capture the
// correlated background fluctuation shared by all bins, and an isolated
// burst stays in the residual.
func (d *Detector) Prepare(ix *trace.Index) (detectors.Prepared, error) {
	ax, err := trace.NewTimeAxis(ix, timeBin)
	if err != nil {
		return nil, fmt.Errorf("pca: %v s bins: %w", timeBin, err)
	}
	p := &prepared{d: d, ix: ix, ax: ax}
	if ax.Bins < 8 || ix.Len() == 0 {
		return p, nil // too short for a meaningful subspace
	}
	bins := make([]uint16, numSketches*ix.Len())
	for si := 0; si < numSketches; si++ {
		sk := sketch.New(sketchWidth, detectors.Seed+uint64(si)*0x9e37)
		sp := sketchSpace{bins: bins[si*ix.Len() : (si+1)*ix.Len()], work: linalg.NewMatrix(ax.Bins, sketchWidth)}
		for pi, src := range ix.Src {
			b := sk.Bin(src)
			sp.bins[pi] = uint16(b)
			sp.work.Data[ax.Bin(ix.Seconds[pi])*sketchWidth+b]++
		}
		sp.work.CenterColumns()
		standardizeColumns(sp.work)
		cov := sp.work.Gram()
		inv := 1.0 / float64(ax.Bins-1)
		for i := range cov.Data {
			cov.Data[i] *= inv
		}
		if _, vecs, err := linalg.EigenSym(cov); err == nil {
			sp.comps = vecs.T()
		}
		p.sketches = append(p.sketches, sp)
	}
	return p, nil
}

// Decide implements detectors.Prepared.
func (p *prepared) Decide(config int) ([]core.Alarm, error) {
	d, ix := p.d, p.ix
	if err := detectors.CheckConfig(d, config); err != nil {
		return nil, err
	}
	tn := tunings[config]

	// One vote per (host, time bin) a sketch implicates, packed host-major
	// so that sorting groups a host's bins in ascending order.
	var votes []uint64
	var cell []trace.IPv4
	var buf residualBuf
	for si := range p.sketches {
		sp := &p.sketches[si]
		for _, at := range sp.residualCells(tn, &buf) {
			// Recover hosts: rescan the time bin's window, keep the
			// packets hashed into the suspicious sketch bin.
			lo, hi := ix.Window(p.ax.Interval(at.bin, at.bin))
			cell = cell[:0]
			for i, b := range sp.bins[lo:hi] {
				if int(b) == at.sketchBin {
					cell = append(cell, ix.Src[lo+i])
				}
			}
			for _, h := range sketch.TopHosts(cell, 3) {
				votes = append(votes, uint64(h)<<32|uint64(at.bin))
			}
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

// anomaly is a (time bin, sketch bin) cell with excess residual.
type anomaly struct {
	bin       int
	sketchBin int
}

// residualBuf is the memory one Decide reuses across its sketches, which all
// share one shape.
type residualBuf struct {
	res     []float64 // rows×cols residuals, column-major
	proj    []float64 // one row's projection onto the normal subspace
	scratch []float64 // stats.MedianMAD's working copies of one column
	cells   []anomaly
}

// residualCells projects every row of the standardized matrix onto the top
// tn.subspace principal components and returns the (time bin, sketch bin)
// cells whose residual exceeds a robust threshold (median + σ·1.4826·MAD),
// by ascending sketch bin, then time bin. The result aliases buf and is
// valid until the next call with it.
func (sp *sketchSpace) residualCells(tn tuning, buf *residualBuf) []anomaly {
	if sp.comps == nil {
		return nil
	}
	rows, cols := sp.work.Rows, sp.work.Cols
	if buf.res == nil {
		buf.res = make([]float64, rows*cols)
		buf.proj = make([]float64, cols)
		buf.scratch = make([]float64, 2*rows)
	}
	k := min(tn.subspace, cols)
	// Residuals after removing each row's projection onto the top-k
	// subspace, stored column-major: a sketch bin's series is contiguous.
	res, proj := buf.res, buf.proj
	for i := 0; i < rows; i++ {
		row := sp.work.Row(i)
		clear(proj)
		for c := 0; c < k; c++ {
			comp := sp.comps.Row(c)
			var dot float64
			for j, v := range row {
				dot += v * comp[j]
			}
			for j, v := range comp {
				proj[j] += dot * v
			}
		}
		for j, v := range row {
			res[j*rows+i] = v - proj[j]
		}
	}
	// Score residuals per column: a burst confined to one sketch bin must
	// not be diluted by the noise of the other 31 columns, so each bin's
	// residual series is thresholded against its own robust statistics.
	out := buf.cells[:0]
	for j := 0; j < cols; j++ {
		col := res[j*rows : (j+1)*rows]
		med, mad := stats.MedianMAD(col, buf.scratch)
		scale := 1.4826 * mad
		if scale < 1e-9 {
			scale = stats.Std(col)
			if scale < 1e-9 {
				continue
			}
		}
		for i, v := range col {
			if (v-med)/scale > tn.sigma {
				out = append(out, anomaly{bin: i, sketchBin: j})
			}
		}
	}
	buf.cells = out
	return out
}

// standardizeColumns scales each column to unit sample variance (columns
// with no variance are left untouched).
func standardizeColumns(m *linalg.Matrix) {
	for j := 0; j < m.Cols; j++ {
		var ss float64
		for i := 0; i < m.Rows; i++ {
			v := m.Data[i*m.Cols+j]
			ss += v * v
		}
		if ss < 1e-12 {
			continue
		}
		inv := 1 / math.Sqrt(ss/float64(m.Rows-1))
		for i := 0; i < m.Rows; i++ {
			m.Data[i*m.Cols+j] *= inv
		}
	}
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
