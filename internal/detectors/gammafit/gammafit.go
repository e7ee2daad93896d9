// Package gammafit implements the sketch + multiresolution Gamma-model
// anomaly detector of Dewaele et al. (§3.2 (2)).
//
// Traffic is hashed twice into sketches — once on source addresses, once on
// destination addresses. Inside every sketch bin, the packet-count process
// is aggregated at several time resolutions and modelled by a Gamma
// distribution; the (α, β) parameters across resolutions characterize the
// bin. Bins whose parameters sit far from an adaptively computed reference
// (the median across bins, scaled by the median absolute deviation) are
// anomalous, and the dominant hosts hashed into them are reported — source
// or destination IP alarms, exactly the granularity the paper describes.
package gammafit

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/sketch"
	"mawilab/internal/stats"
	"mawilab/internal/trace"
)

// Detector is the multiresolution Gamma detector. It has no settings: its
// parameters are package constants, its configurations three fixed
// thresholds.
type Detector struct{}

// The detector's parameters, fixed for every tuning.
const (
	sketchWidth = 32 // buckets per sketch
	topHosts    = 3  // hosts reported per anomalous bin, at most
)

// resolutions are the aggregation scales in µs, finest first.
var resolutions = [...]int64{500_000, 1_000_000, 2_000_000}

// thresholds holds the per-configuration anomaly threshold on the robust
// parameter distance; index with detectors.Optimal/Sensitive/Conservative.
var thresholds = [detectors.NumTunings]float64{
	detectors.Optimal:      30,
	detectors.Sensitive:    18,
	detectors.Conservative: 55,
}

// New returns the detector.
func New() *Detector { return &Detector{} }

// Name implements detectors.Detector.
func (d *Detector) Name() string { return "gamma" }

// NumConfigs implements detectors.Detector.
func (d *Detector) NumConfigs() int { return int(detectors.NumTunings) }

// Detect implements detectors.Detector: one Prepare, one Decide.
func (d *Detector) Detect(ix *trace.Index, config int) ([]core.Alarm, error) {
	return detectors.Detect(d, ix, config)
}

// prepared is the threshold-independent analysis of one index: per
// direction, the robust distance of every fitted sketch bin from the
// adaptive reference and, where any configuration can flag the bin, its
// dominant hosts. It holds no reference to the index.
type prepared struct {
	d    *Detector
	dirs [2][]binScore // [0] hashed on source, [1] on destination addresses
}

// binScore is one fitted sketch bin. hosts is filled only when dist exceeds
// the smallest configured threshold.
type binScore struct {
	dist  float64
	hosts []trace.IPv4
}

// Prepare implements detectors.Preparer: the sketch rasterization, the
// per-resolution Gamma fits, the adaptive reference and every bin's summed
// distance, for both directions. A configuration is one threshold on that
// distance.
func (d *Detector) Prepare(ix *trace.Index) (detectors.Prepared, error) {
	ax, err := trace.NewTimeAxis(ix, resolutions[0])
	if err != nil {
		return nil, fmt.Errorf("gamma: %v s bins: %w", float64(resolutions[0])/1e6, err)
	}
	ax.Bins++ // one spare cell past the last packet's, kept for byte identity
	p := &prepared{d: d}
	if n := ix.Len(); n > 0 && ix.TS[n-1] >= 4*resolutions[len(resolutions)-1] {
		p.dirs = [2][]binScore{prepareDirection(ix, ax, false), prepareDirection(ix, ax, true)}
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
	for di, bins := range p.dirs {
		dst := di == 1
		first := len(alarms)
		for _, b := range bins {
			if b.dist <= threshold {
				continue
			}
			for _, host := range b.hosts {
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
					Score:    b.dist,
					Note:     direction(dst) + " sketch bin",
				})
			}
		}
		// Deterministic order within a direction: by first filter host.
		dir := alarms[first:]
		sort.SliceStable(dir, func(i, j int) bool {
			return filterHost(dir[i]) < filterHost(dir[j])
		})
	}
	return alarms, nil
}

// prepareDirection runs the sketch/Gamma analysis hashed on source (dst ==
// false) or destination addresses, scanning the index's address and
// timestamp columns into the cells of ax, the finest resolution. Bins come
// back in ascending bin order.
//
// Only the cells from an origin at or before the first packet's are kept;
// the empty cells before it — a stream segment's age — are a count that
// each fit takes as leading zeros (stats.FitGammaMoments), the same float64
// bits the dense cells give. The origin is a multiple of the coarsest
// aggregation factor, which every finer factor divides, so each resolution
// aggregates the kept cells into exactly the dense aggregates past its
// leading zeros. A batch day or an upload is the case origin = 0.
func prepareDirection(ix *trace.Index, ax trace.TimeAxis, dst bool) []binScore {
	seed := uint64(detectors.Seed)
	if dst {
		seed ^= 0xdeadbeef
	}
	sk := sketch.New(sketchWidth, seed)
	addrs := ix.Src
	if dst {
		addrs = ix.Dst
	}

	// One bins×cells slab of packet counts at the finest resolution.
	var factors [len(resolutions)]int
	for ri, res := range resolutions {
		factors[ri] = int(res / ax.Width)
	}
	coarsest := factors[len(factors)-1]
	origin := ax.First() - ax.First()%coarsest
	cells := ax.Bins - origin
	counts := make([]float64, sketchWidth*cells)
	for pi, addr := range addrs {
		counts[sk.Bin(addr)*cells+ax.Bin(ix.TS[pi])-origin]++
	}

	// Per-resolution Gamma fits for every active bin: fits holds nres
	// entries per fitted bin, fitBin the bins in ascending order.
	nres := len(resolutions)
	var (
		fits   []stats.GammaParams
		fitBin []int
	)
	sample := make([]float64, cells)
	for b := 0; b < sketchWidth; b++ {
		row := counts[b*cells : (b+1)*cells]
		total := 0.0
		for _, v := range row {
			total += v
		}
		if total == 0 {
			continue
		}
		ok := true
		for _, f := range factors {
			g, err := stats.FitGammaMoments(origin/f, aggregate(sample, row, f))
			if err != nil {
				ok = false
				break
			}
			fits = append(fits, g)
		}
		if ok {
			fitBin = append(fitBin, b)
		} else {
			fits = fits[:len(fitBin)*nres]
		}
	}
	if len(fitBin) < 4 {
		return nil // not enough populated bins for a reference
	}

	// Adaptive reference: per-resolution median and MAD of α and β.
	refs := make([]stats.GammaParams, nres)
	alphaMAD := make([]float64, nres)
	betaMAD := make([]float64, nres)
	alphas := make([]float64, len(fitBin))
	betas := make([]float64, len(fitBin))
	scratch := make([]float64, 2*len(fitBin))
	for ri := 0; ri < nres; ri++ {
		for i := range fitBin {
			alphas[i] = fits[i*nres+ri].Alpha
			betas[i] = fits[i*nres+ri].Beta
		}
		alpha, aMAD := stats.MedianMAD(alphas, scratch)
		beta, bMAD := stats.MedianMAD(betas, scratch)
		refs[ri] = stats.GammaParams{Alpha: alpha, Beta: beta}
		alphaMAD[ri] = robustScale(aMAD, alpha)
		betaMAD[ri] = robustScale(bMAD, beta)
	}

	// Distances, and the dominant hosts of every bin some configuration can
	// flag: one more pass over the address column gathers their packets.
	loosest := slices.Min(thresholds[:])
	scores := make([]binScore, len(fitBin))
	scoreOf := make([]int32, sketchWidth) // bin → index into scores, +1; 0 = not flagged
	flagged := 0
	for i, b := range fitBin {
		dist := 0.0
		for ri := 0; ri < nres; ri++ {
			dist += stats.GammaDistance(fits[i*nres+ri], refs[ri], alphaMAD[ri], betaMAD[ri])
		}
		scores[i].dist = dist
		if dist <= loosest {
			continue
		}
		scoreOf[b] = int32(i) + 1
		flagged++
	}
	if flagged == 0 {
		return scores
	}
	for _, addr := range addrs {
		if i := scoreOf[sk.Bin(addr)]; i != 0 {
			scores[i-1].hosts = append(scores[i-1].hosts, addr)
		}
	}
	for i := range scores {
		if len(scores[i].hosts) > 0 {
			scores[i].hosts = sketch.TopHosts(scores[i].hosts, topHosts)
		}
	}
	return scores
}

func direction(dst bool) string {
	if dst {
		return "dst"
	}
	return "src"
}

func filterHost(a core.Alarm) trace.IPv4 {
	f := a.Filters[0]
	if f.Src != nil {
		return *f.Src
	}
	if f.Dst != nil {
		return *f.Dst
	}
	return 0
}

// aggregate sums consecutive groups of factor cells into dst (which must
// hold len(cells) entries) and returns the filled prefix; at factor <= 1 the
// cells are the sample as they stand.
func aggregate(dst, cells []float64, factor int) []float64 {
	if factor <= 1 {
		return cells
	}
	dst = dst[:(len(cells)+factor-1)/factor]
	clear(dst)
	for i, v := range cells {
		dst[i/factor] += v
	}
	return dst
}

// robustScale guards the MAD against collapsing to zero when more than half
// the bins are identical; fall back to a fraction of the reference value.
func robustScale(mad, ref float64) float64 {
	if mad > 1e-9 {
		return mad
	}
	if ref != 0 {
		return math.Abs(ref) * 0.1
	}
	return 1
}
