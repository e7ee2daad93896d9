// Wormoutbreak reproduces the §4.2.2 narrative: during the Blaster and
// Sasser outbreaks the traffic changes so much that the detectors disagree,
// the combiner misses more attacks (higher rejected attack ratio), and no
// single detector can be trusted either. This example tracks the four
// strategies across the Sasser release and shows the disagreement.
//
// Run with:
//
//	go run ./examples/wormoutbreak
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"mawilab"
	"mawilab/internal/detectors/suite"
	"mawilab/internal/eval"
	"mawilab/internal/mawigen"
)

func main() {
	archive := mawigen.NewArchive(7)
	runner := eval.NewRunner(archive, suite.Standard())

	// Four weeks before the Sasser release, then the outbreak months;
	// dates[peak] is the worst outbreak day.
	const peak = 3
	dates := []time.Time{
		mawilab.Date(2004, time.March, 1),
		mawilab.Date(2004, time.April, 5),
		mawilab.Date(2004, time.May, 3),  // outbreak
		mawilab.Date(2004, time.May, 17), // peak
		mawilab.Date(2004, time.June, 7),
		mawilab.Date(2004, time.July, 5),
	}

	// Label every date once; the figures below read the labeled days.
	days, err := runner.Days(context.Background(), dates)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("attack ratio of accepted (A) and rejected (R) communities per strategy:")
	fmt.Printf("%-12s %10s %10s %10s %10s %10s\n", "date", "worm pkts", "avg A/R", "min A/R", "max A/R", "SCANN A/R")
	for _, day := range days {
		wormPkts := 0
		for _, ev := range day.Truth {
			if ev.Kind == mawigen.KindWormSasser {
				wormPkts += ev.Packets
			}
		}
		row := fmt.Sprintf("%-12s %10d", day.Date.Format("2006-01-02"), wormPkts)
		for _, s := range []string{"average", "minimum", "maximum", "SCANN"} {
			dec := day.Decisions[s]
			accRatio := eval.AttackRatio(day.Reports, func(i int) bool { return dec[i].Accepted })
			rejRatio := eval.AttackRatio(day.Reports, func(i int) bool { return !dec[i].Accepted })
			row += fmt.Sprintf(" %5.2f/%4.2f", accRatio, rejRatio)
		}
		fmt.Println(row)
	}

	// Detector disagreement on the worst outbreak day: how many
	// communities are seen by one detector only?
	soloByDetector := map[string]int{}
	multi := 0
	for _, c := range days[peak].Communities {
		if len(c.Detectors) == 1 {
			soloByDetector[c.Detectors[0]]++
		} else {
			multi++
		}
	}
	fmt.Printf("\n%s: %d communities reported by multiple detectors\n", days[peak].Date.Format("2006-01-02"), multi)
	fmt.Println("single-detector communities (the disagreement the outbreak causes):")
	dets := make([]string, 0, len(soloByDetector))
	for det := range soloByDetector {
		dets = append(dets, det)
	}
	sort.Strings(dets)
	for _, det := range dets {
		fmt.Printf("  %-8s %d\n", det, soloByDetector[det])
	}
}
