// Benchmark shows MAWILab's raison d'être: using the published labels as
// ground truth to measure a new anomaly detector — here, the naive
// top-talker detector — including the false-negative rate that ad-hoc
// evaluations omit (§1).
//
// The labeled communities play the role of the MAWILab database; the
// candidate detector's alarms are compared against them with the same
// similarity machinery the pipeline itself uses.
//
// Run with:
//
//	go run ./examples/benchmark
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"mawilab"
	"mawilab/internal/core"
	"mawilab/internal/trace"
)

// topTalkerAlarms reports the k busiest sources of the trace — a crude
// "detector" someone might want to benchmark.
func topTalkerAlarms(tr *trace.Trace, k int) []core.Alarm {
	counts := make(map[trace.IPv4]int)
	for i := range tr.Packets {
		counts[tr.Packets[i].Src]++
	}
	type hc struct {
		ip trace.IPv4
		n  int
	}
	hosts := make([]hc, 0, len(counts))
	for ip, n := range counts {
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
	alarms := make([]core.Alarm, k)
	for i := 0; i < k; i++ {
		alarms[i] = core.Alarm{
			Detector: "toptalker",
			Config:   0,
			Filters:  []trace.Filter{mawilab.NewFilter().WithSrc(hosts[i].ip)},
		}
	}
	return alarms
}

func main() {
	day := mawilab.NewArchive(123).Day(time.Date(2006, time.February, 6, 0, 0, 0, 0, time.UTC))
	tr := day.Trace

	// Step 1: produce the reference labeling (the "MAWILab database").
	labeling, err := mawilab.NewPipeline().Run(tr)
	if err != nil {
		log.Fatal(err)
	}
	anomalies := labeling.Anomalies()
	fmt.Printf("reference: %d communities, %d labeled anomalous\n", len(labeling.Reports), len(anomalies))

	// Step 2: the candidate detector's alarms.
	candidate := topTalkerAlarms(tr, 10)
	fmt.Printf("candidate top-talker detector raised %d alarms\n\n", len(candidate))

	// Step 3: compare through the similarity estimator — exactly how the
	// paper proposes emerging detectors be scored against MAWILab. The
	// candidate alarms join the graph; any community that mixes candidate
	// alarms with reference-anomalous traffic is a hit.
	// Reuse the index the pipeline already built — the build-once rule.
	ix := labeling.Result.Index()
	ext := core.NewExtractor(ix, trace.GranUniFlow)
	candSets := make([]*core.TrafficSet, len(candidate))
	for i := range candidate {
		candSets[i] = ext.Extract(&candidate[i])
	}

	// Reference anomalous traffic sets (union per anomalous community).
	truePositives := 0
	matchedAnomalies := make(map[int]bool)
	for i, cs := range candSets {
		hit := false
		for _, rep := range anomalies {
			c := &labeling.Result.Communities[rep.Community]
			if overlaps(cs, c, ix) {
				hit = true
				matchedAnomalies[rep.Community] = true
			}
		}
		if hit {
			truePositives++
		}
		_ = i
	}
	falsePositives := len(candidate) - truePositives
	falseNegatives := len(anomalies) - len(matchedAnomalies)

	fmt.Println("benchmark against MAWILab labels:")
	fmt.Printf("  true positives : %d / %d alarms designate labeled-anomalous traffic\n", truePositives, len(candidate))
	fmt.Printf("  false positives: %d alarms hit only benign/notice traffic\n", falsePositives)
	fmt.Printf("  false negatives: %d / %d anomalies missed — the metric ad-hoc evaluations omit\n",
		falseNegatives, len(anomalies))
	if len(anomalies) > 0 {
		fmt.Printf("  recall         : %.2f\n", float64(len(matchedAnomalies))/float64(len(anomalies)))
	}
	if len(candidate) > 0 {
		fmt.Printf("  precision      : %.2f\n", float64(truePositives)/float64(len(candidate)))
	}
}

// overlaps reports whether a candidate traffic set shares at least 10% of
// its flows with a reference community (Simpson-style containment).
func overlaps(cs *core.TrafficSet, c *core.Community, ix *trace.Index) bool {
	if cs.Size() == 0 {
		return false
	}
	ref := make(map[trace.FlowKey]bool, len(c.Traffic.Flows))
	for _, k := range c.Traffic.Flows {
		ref[k] = true
	}
	common := 0
	for _, fi := range cs.FlowRefs {
		if ref[ix.Flow(fi)] {
			common++
		}
	}
	return float64(common) >= 0.1*float64(len(cs.FlowRefs)) && common > 0
}
