// Quickstart: generate one synthetic MAWI archive day, run the full
// MAWILab pipeline (four detectors → similarity estimator → SCANN →
// labels), and print the labeled anomaly communities.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"mawilab"
)

func main() {
	// A day from the Sasser outbreak: the archive model injects worm
	// propagation on 445/tcp alongside the usual background anomalies.
	archive := mawilab.NewArchive(42)
	day := archive.Day(time.Date(2004, time.May, 10, 0, 0, 0, 0, time.UTC))

	// The pipeline with the paper's retained configuration: uniflow
	// granularity, Simpson similarity, Louvain communities, SCANN.
	pipeline := mawilab.NewPipeline()
	labeling, err := pipeline.Run(day.Trace)
	if err != nil {
		log.Fatal(err)
	}

	// The labeled index: the trace as the pipeline saw it, flows included.
	ix := labeling.Result.Index()
	fmt.Printf("trace %s: %d packets, %d flows, %.0fs\n",
		day.Trace.Name, ix.Len(), ix.Flows(), ix.Duration())
	fmt.Printf("ground truth: %d injected events\n\n", len(day.Truth))

	fmt.Printf("%d alarms from %d detectors clustered into %d communities\n\n",
		len(labeling.Alarms), len(pipeline.Detectors), len(labeling.Reports))

	fmt.Println("labeled communities (MAWILab taxonomy):")
	for _, rep := range labeling.Reports {
		rule := "<no rule>"
		if len(rep.Rules) > 0 {
			rule = rep.Rules[0].String()
		}
		fmt.Printf("  %-10s %-7s/%-11s %6d pkts  %s\n",
			rep.Label, rep.Class, rep.Category, rep.Packets, rule)
	}

	// Score against the generator's ground truth: how many injected
	// events did the combined labeling capture?
	detected, total := mawilab.GroundTruthEval(day.Trace, labeling, day.Truth, 10)
	fmt.Printf("\nground-truth events covered by anomalous labels: %d/%d\n", detected, total)

	// The label database as CSV, as published by MAWILab.
	fmt.Println("\nCSV label database:")
	if err := labeling.WriteCSV(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
