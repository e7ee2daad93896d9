// Customdetector demonstrates the §6 extension point: MAWILab "permits to
// include the results of upcoming anomaly detectors so as to improve over
// time the quality and variety of labels". Any annotation with a time
// interval and at least one traffic feature can join the combination.
//
// Here a naive entropy-based detector is added as a fifth ensemble member;
// its alarms land in the same similarity graph and vote alongside the four
// standard detectors.
//
// Run with:
//
//	go run ./examples/customdetector
package main

import (
	"fmt"
	"log"
	"math"
	"sort"
	"time"

	"mawilab"
	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/stats"
	"mawilab/internal/trace"
)

// entropyDetector flags time bins where source-address entropy collapses
// (one host dominating, e.g. a flood) or explodes (a scan touching many
// hosts), then reports the top source of the bin. Two configurations vary
// the threshold.
type entropyDetector struct {
	timeBin    float64
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
	hists := make([]*stats.Histogram, ax.Bins)
	for i := range hists {
		hists[i] = stats.NewHistogram()
	}
	// Custom detectors read the shared columnar index, like the standard
	// ensemble: the pipeline builds it once and fans it out.
	for i := 0; i < ix.Len(); i++ {
		hists[ax.Bin(ix.Seconds[i])].Add(uint64(ix.Src[i]), 1)
	}
	entropy := make([]float64, ax.Bins)
	for i, h := range hists {
		entropy[i] = h.Entropy()
	}
	med, mad := stats.MedianMAD(entropy, nil)
	if mad < 1e-9 {
		return nil, nil
	}
	var alarms []core.Alarm
	for b, e := range entropy {
		if math.Abs(e-med)/(1.4826*mad) <= d.thresholds[config] {
			continue
		}
		top := hists[b].TopK(1)
		if len(top) == 0 {
			continue
		}
		alarms = append(alarms, core.Alarm{
			Detector: d.Name(),
			Config:   config,
			Filters: []trace.Filter{
				mawilab.NewFilter().WithSrc(trace.IPv4(top[0].Key)).WithInterval(ax.Interval(b, b)),
			},
			Score: math.Abs(e-med) / (1.4826 * mad),
			Note:  "src entropy shift",
		})
	}
	return alarms, nil
}

func main() {
	day := mawilab.NewArchive(99).Day(time.Date(2005, time.November, 7, 0, 0, 0, 0, time.UTC))

	// Standard four-detector pipeline for the baseline...
	baseline := mawilab.NewPipeline()
	baseLabels, err := baseline.Run(day.Trace)
	if err != nil {
		log.Fatal(err)
	}

	// ...and the extended ensemble with the entropy detector included.
	extended := mawilab.NewPipeline()
	extended.Detectors = append(mawilab.StandardDetectors(),
		&entropyDetector{timeBin: 2, thresholds: []float64{4, 2.5}})
	extLabels, err := extended.Run(day.Trace)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("baseline: %d alarms, %d communities, %d anomalous\n",
		len(baseLabels.Alarms), len(baseLabels.Reports), len(baseLabels.Anomalies()))
	fmt.Printf("extended: %d alarms, %d communities, %d anomalous\n",
		len(extLabels.Alarms), len(extLabels.Reports), len(extLabels.Anomalies()))

	// Where did the entropy detector's alarms land? Communities shared
	// with other detectors corroborate them; isolated ones are its false
	// positives that SCANN can discount.
	shared, solo := 0, 0
	for i := range extLabels.Result.Communities {
		c := &extLabels.Result.Communities[i]
		dets := extLabels.Result.DetectorsIn(c)
		hasEntropy := false
		for _, d := range dets {
			if d == "entropy" {
				hasEntropy = true
			}
		}
		if !hasEntropy {
			continue
		}
		if len(dets) > 1 {
			shared++
		} else {
			solo++
		}
	}
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
	labels := []string{"anomalous", "suspicious", "notice"}
	sort.Strings(labels)
	fmt.Println("\nlabel counts      baseline  extended")
	for _, lbl := range labels {
		fmt.Printf("  %-12s %9d %9d\n", lbl, b[lbl], e[lbl])
	}
}
