// Customdetector demonstrates the §6 extension point: MAWILab "permits to
// include the results of upcoming anomaly detectors so as to improve over
// time the quality and variety of labels". Any annotation with a time
// interval and at least one traffic feature can join the combination.
//
// Here a naive entropy-based detector is added as a fifth ensemble member;
// its alarms land in the same similarity graph and vote alongside the four
// standard detectors. Its time is the index's integer µs: trace.NewTimeAxis
// takes the bin width in µs and Interval returns Filter.WithInterval's µs.
//
// Run with:
//
//	go run ./examples/customdetector
package main

import (
	"fmt"
	"log"
	"maps"
	"math"
	"slices"
	"time"

	"mawilab"
	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/stats"
	"mawilab/internal/trace"
)

// entropyDetector flags time bins where source-address entropy collapses
// (one host dominating) or explodes (many sources, e.g. a spoofed flood).
// A drop reports the bin's top source, the host that dominates it; a rise
// reports the bin's top destination, the target the many sources converge
// on. Two configurations vary the threshold.
type entropyDetector struct {
	timeBin    int64     // µs
	thresholds []float64 // robust z per config
}

func (d *entropyDetector) Name() string    { return "entropy" }
func (d *entropyDetector) NumConfigs() int { return len(d.thresholds) }

func (d *entropyDetector) Detect(ix *trace.Index, config int) ([]core.Alarm, error) {
	if err := detectors.CheckConfig(d, config); err != nil {
		return nil, err
	}
	// The time axis is the one binning every detector shares: it rejects a
	// bad width or an oversized span, maps a timestamp to its bin and a bin
	// back to the interval an alarm carries.
	ax, err := trace.NewTimeAxis(ix, d.timeBin)
	if err != nil {
		return nil, err
	}
	if ax.Bins < 4 || ix.Len() == 0 {
		return nil, nil
	}
	// Custom detectors read the shared columnar index, like the standard
	// ensemble: the pipeline builds it once and fans it out.
	sources := make([]map[trace.IPv4]int, ax.Bins)
	dests := make([]map[trace.IPv4]int, ax.Bins)
	for i := range sources {
		sources[i], dests[i] = map[trace.IPv4]int{}, map[trace.IPv4]int{}
	}
	for i := 0; i < ix.Len(); i++ {
		b := ax.Bin(ix.TS[i])
		sources[b][ix.Src[i]]++
		dests[b][ix.Dst[i]]++
	}
	entropy := make([]float64, ax.Bins)
	for b, counts := range sources {
		entropy[b] = sourceEntropy(counts)
	}
	med, mad := stats.MedianMAD(entropy, nil)
	if mad < 1e-9 {
		return nil, nil
	}
	var alarms []core.Alarm
	for b, e := range entropy {
		if math.Abs(e-med)/(1.4826*mad) <= d.thresholds[config] || len(sources[b]) == 0 {
			continue
		}
		f := mawilab.NewFilter().WithSrc(topAddress(sources[b]))
		if e > med {
			f = mawilab.NewFilter().WithDst(topAddress(dests[b]))
		}
		alarms = append(alarms, core.Alarm{
			Detector: d.Name(),
			Config:   config,
			Filters:  []trace.Filter{f.WithInterval(ax.Interval(b, b))},
			Score:    math.Abs(e-med) / (1.4826 * mad),
			Note:     "src entropy shift",
		})
	}
	return alarms, nil
}

// sourceEntropy returns the Shannon entropy in bits of one bin's source
// counts. It walks the sources in ascending order: float sums are not
// associative, so map order would leak into the low bits.
func sourceEntropy(counts map[trace.IPv4]int) (bits float64) {
	srcs := slices.Sorted(maps.Keys(counts))
	total := 0
	for _, src := range srcs {
		total += counts[src]
	}
	for _, src := range srcs {
		p := float64(counts[src]) / float64(total)
		bits -= float64(p * math.Log2(p))
	}
	return bits
}

// topAddress returns the address with the most packets in one bin's counts,
// the smaller address on a tie, whatever the map's order.
func topAddress(counts map[trace.IPv4]int) (top trace.IPv4) {
	for _, a := range slices.Sorted(maps.Keys(counts)) {
		if counts[a] > counts[top] {
			top = a
		}
	}
	return top
}

// entropyCommunities counts the communities holding an entropy alarm:
// shared ones, where another detector corroborates it, and solo ones, its
// false positives that SCANN can discount.
func entropyCommunities(l *mawilab.Labeling) (shared, solo int) {
	for i := range l.Result.Communities {
		dets := l.Result.DetectorsIn(&l.Result.Communities[i])
		switch {
		case !slices.Contains(dets, "entropy"):
		case len(dets) > 1:
			shared++
		default:
			solo++
		}
	}
	return shared, solo
}

// label runs the standard four-detector pipeline and the ensemble extended
// with the entropy detector over one archive day. Its SYN flood (43-52 s)
// comes from spoofed sources, which raises the source entropy of the bins
// it covers; those alarms name the flood's target.
func label() (baseline, extended *mawilab.Labeling, err error) {
	day := mawilab.NewArchive(99).Day(time.Date(2001, time.July, 30, 0, 0, 0, 0, time.UTC))
	if baseline, err = mawilab.NewPipeline().Run(day.Trace); err != nil {
		return nil, nil, err
	}
	p := mawilab.NewPipeline()
	p.Detectors = append(mawilab.StandardDetectors(),
		&entropyDetector{timeBin: 2_000_000, thresholds: []float64{4, 2.5}})
	extended, err = p.Run(day.Trace)
	return baseline, extended, err
}

func main() {
	baseLabels, extLabels, err := label()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: %d alarms, %d communities, %d anomalous\n",
		len(baseLabels.Alarms), len(baseLabels.Reports), len(baseLabels.Anomalies()))
	fmt.Printf("extended: %d alarms, %d communities, %d anomalous\n",
		len(extLabels.Alarms), len(extLabels.Reports), len(extLabels.Anomalies()))

	// Where did the entropy detector's alarms land?
	shared, solo := entropyCommunities(extLabels)
	fmt.Printf("\nentropy-detector communities: %d corroborated by other detectors, %d isolated\n", shared, solo)

	// Per-label comparison: the extra votes can move borderline
	// communities across the taxonomy.
	count := func(l *mawilab.Labeling) map[string]int {
		m := map[string]int{}
		for _, rep := range l.Reports {
			m[rep.Label.String()]++
		}
		return m
	}
	b, e := count(baseLabels), count(extLabels)
	fmt.Println("\nlabel counts      baseline  extended")
	for _, lbl := range []string{"anomalous", "notice", "suspicious"} {
		fmt.Printf("  %-12s %9d %9d\n", lbl, b[lbl], e[lbl])
	}
}
