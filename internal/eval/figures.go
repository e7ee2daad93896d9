package eval

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"mawilab/internal/heuristics"
	"mawilab/internal/stats"
	"mawilab/internal/trace"
)

// Fig3Result carries the four panels of Fig. 3: the similarity estimator
// evaluated at the three traffic granularities.
type Fig3Result struct {
	// SinglesCDF is Fig. 3a: CDF of the number of single communities per
	// trace, one series per granularity.
	SinglesCDF []stats.Series
	// SizeCDF is Fig. 3b: CDF of community sizes (size > 1).
	SizeCDF []stats.Series
	// RuleSupportCDF is Fig. 3c: CDF of rule support (size > 1), percent.
	RuleSupportCDF []stats.Series
	// RuleDegreePMF is Fig. 3d: distribution of rule degree (size > 1).
	RuleDegreePMF []stats.Series
}

// Fig3Granularities are the traffic granularities Fig. 3 compares, in the
// order of its series.
var Fig3Granularities = []trace.Granularity{trace.GranPacket, trace.GranUniFlow, trace.GranBiFlow}

// Fig3 folds the days labeled at each of Fig3Granularities — the runner's
// pipeline with only Estimator.Granularity swept (Runner.AtGranularity) —
// into the four panels. Rule support and degree do not depend on the
// combiner's decisions, so the panels read the labeling as shipped. A
// granularity without a day set is an error.
func Fig3(days map[trace.Granularity][]*DayResult) (*Fig3Result, error) {
	out := &Fig3Result{}
	for _, g := range Fig3Granularities {
		gdays, ok := days[g]
		if !ok {
			return nil, fmt.Errorf("eval: Fig3 has no days at %s granularity", g)
		}
		var singles, sizes, ruleSupport, ruleDegree []float64
		for _, day := range gdays {
			n := 0
			for i, c := range day.Communities {
				if c.Alarms == 1 {
					n++
				}
				if c.Alarms <= 1 {
					continue
				}
				sizes = append(sizes, float64(c.Alarms))
				ruleSupport = append(ruleSupport, day.Reports[i].RuleSupport*100)
				ruleDegree = append(ruleDegree, snapDegree(day.Reports[i].RuleDegree))
			}
			singles = append(singles, float64(n))
		}
		name := g.String()
		out.SinglesCDF = append(out.SinglesCDF, stats.ECDF(name, singles))
		out.SizeCDF = append(out.SizeCDF, stats.ECDF(name, sizes))
		out.RuleSupportCDF = append(out.RuleSupportCDF, stats.ECDF(name, ruleSupport))
		out.RuleDegreePMF = append(out.RuleDegreePMF, stats.Mass(name, ruleDegree))
	}
	return out, nil
}

// snapDegree rounds a mean rule degree to the nearest integer bin as the
// paper's Fig. 3d histogram does.
func snapDegree(d float64) float64 {
	if d < 0 {
		return 0
	}
	return float64(int(d + 0.5))
}

// Fig4Result carries Fig. 4: rule support and rule degree as functions of
// community size (uniflow granularity), spline-smoothed.
type Fig4Result struct {
	Support stats.Series // X = community size, Y = mean rule support (%)
	Degree  stats.Series // X = community size, Y = mean rule degree
}

// Fig4 folds the days' communities of more than one alarm into their mean
// rule support and degree per community size (uniflow days in the paper).
func Fig4(days []*DayResult) *Fig4Result {
	supportBySize := make(map[int][]float64)
	degreeBySize := make(map[int][]float64)
	for _, day := range days {
		for i, c := range day.Communities {
			if c.Alarms <= 1 {
				continue
			}
			supportBySize[c.Alarms] = append(supportBySize[c.Alarms], day.Reports[i].RuleSupport*100)
			degreeBySize[c.Alarms] = append(degreeBySize[c.Alarms], day.Reports[i].RuleDegree)
		}
	}
	out := &Fig4Result{Support: stats.Series{Name: "rule support"}, Degree: stats.Series{Name: "rule degree"}}
	for _, s := range slices.Sorted(maps.Keys(supportBySize)) {
		out.Support.Points = append(out.Support.Points, stats.Point{X: float64(s), Y: stats.Mean(supportBySize[s])})
		out.Degree.Points = append(out.Degree.Points, stats.Point{X: float64(s), Y: stats.Mean(degreeBySize[s])})
	}
	out.Support = stats.Smooth(out.Support, 0.25)
	out.Degree = stats.Smooth(out.Degree, 0.25)
	return out
}

// Fig5Bucket is one bar of Fig. 5: communities bucketed by size and by the
// number of distinct detectors reporting them, broken down by Table 1
// class.
type Fig5Bucket struct {
	SizeBucket string // "1alarm", "2alarms", "3-4alarms", "5-20alarms", "21+alarms"
	Detectors  int    // distinct detectors in the community (1..4)
	Detector   string // for single communities: which detector
	Attack     int
	Special    int
	Unknown    int
}

// Total returns the community count in the bucket.
func (b *Fig5Bucket) Total() int { return b.Attack + b.Special + b.Unknown }

// Fig5 folds the days' communities into the landscape of Fig. 5.
func Fig5(days []*DayResult) []Fig5Bucket {
	// Keyed by the bucket itself with its counts at zero.
	acc := make(map[Fig5Bucket]*Fig5Bucket)
	for _, day := range days {
		for i, c := range day.Communities {
			k := Fig5Bucket{SizeBucket: sizeBucket(c.Alarms), Detectors: len(c.Detectors)}
			if c.Alarms == 1 {
				k.Detector = c.Detectors[0]
			}
			b := acc[k]
			if b == nil {
				b = &k
				acc[k] = b
			}
			switch day.Reports[i].Class {
			case heuristics.Attack:
				b.Attack++
			case heuristics.Special:
				b.Special++
			default:
				b.Unknown++
			}
		}
	}
	out := make([]Fig5Bucket, 0, len(acc))
	for _, b := range acc {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool {
		oi, oj := bucketOrder(out[i].SizeBucket), bucketOrder(out[j].SizeBucket)
		if oi != oj {
			return oi < oj
		}
		if out[i].Detectors != out[j].Detectors {
			return out[i].Detectors < out[j].Detectors
		}
		return out[i].Detector < out[j].Detector
	})
	return out
}

func sizeBucket(n int) string {
	switch {
	case n == 1:
		return "1alarm"
	case n == 2:
		return "2alarms"
	case n <= 4:
		return "3-4alarms"
	case n <= 20:
		return "5-20alarms"
	default:
		return "21+alarms"
	}
}

func bucketOrder(s string) int {
	switch s {
	case "1alarm":
		return 0
	case "2alarms":
		return 1
	case "3-4alarms":
		return 2
	case "5-20alarms":
		return 3
	default:
		return 4
	}
}

// DayRatios carries one day's attack ratios per strategy and detector —
// the underlying samples of Figures 6 and 7.
type DayRatios struct {
	Date time.Time
	// Accepted / Rejected map strategy name → attack ratio of that class.
	Accepted map[string]float64
	Rejected map[string]float64
	// PerDetector maps detector name → attack ratio of the communities
	// it reported (Fig. 6c).
	PerDetector map[string]float64
}

// Ratios folds labeled days into their attack ratios — the samples of
// Figures 6 and 7 and of the headline — in the days' order.
func Ratios(days []*DayResult) []DayRatios {
	ratios := make([]DayRatios, 0, len(days))
	for _, day := range days {
		dr := DayRatios{
			Date:        day.Date,
			Accepted:    make(map[string]float64),
			Rejected:    make(map[string]float64),
			PerDetector: make(map[string]float64),
		}
		for name, dec := range day.Decisions {
			dr.Accepted[name] = AttackRatio(day.Reports, func(i int) bool { return dec[i].Accepted })
			dr.Rejected[name] = AttackRatio(day.Reports, func(i int) bool { return !dec[i].Accepted })
		}
		for det := range day.Totals {
			dr.PerDetector[det] = AttackRatio(day.Reports, func(i int) bool {
				return slices.Contains(day.Communities[i].Detectors, det)
			})
		}
		ratios = append(ratios, dr)
	}
	return ratios
}

// Fig6 builds the attack-ratio PDFs of Fig. 6 from per-day ratios:
// accepted per strategy (a), rejected per strategy (b), per detector (c).
func Fig6(ratios []DayRatios) (accepted, rejected, perDetector []stats.Series) {
	strategies := keyUnion(ratios, func(dr DayRatios) map[string]float64 { return dr.Accepted })
	for _, s := range strategies {
		var acc, rej []float64
		for _, dr := range ratios {
			acc = append(acc, dr.Accepted[s])
			rej = append(rej, dr.Rejected[s])
		}
		accepted = append(accepted, stats.PDF(s, acc, 0, 1, 20))
		rejected = append(rejected, stats.PDF(s, rej, 0, 1, 20))
	}
	dets := keyUnion(ratios, func(dr DayRatios) map[string]float64 { return dr.PerDetector })
	for _, d := range dets {
		var vals []float64
		for _, dr := range ratios {
			vals = append(vals, dr.PerDetector[d])
		}
		perDetector = append(perDetector, stats.PDF(d, vals, 0, 1, 20))
	}
	return accepted, rejected, perDetector
}

// Fig7 builds the attack-ratio time series of Fig. 7 (accepted and
// rejected, per strategy). X is the fractional year of the date.
func Fig7(ratios []DayRatios) (accepted, rejected []stats.Series) {
	strategies := keyUnion(ratios, func(dr DayRatios) map[string]float64 { return dr.Accepted })
	for _, s := range strategies {
		sa := stats.Series{Name: s}
		sr := stats.Series{Name: s}
		for _, dr := range ratios {
			x := yearFraction(dr.Date)
			sa.Points = append(sa.Points, stats.Point{X: x, Y: dr.Accepted[s]})
			sr.Points = append(sr.Points, stats.Point{X: x, Y: dr.Rejected[s]})
		}
		accepted = append(accepted, sa)
		rejected = append(rejected, sr)
	}
	return accepted, rejected
}

func yearFraction(d time.Time) float64 {
	year := time.Date(d.Year(), 1, 1, 0, 0, 0, 0, time.UTC)
	next := year.AddDate(1, 0, 0)
	return float64(d.Year()) + d.Sub(year).Hours()/next.Sub(year).Hours()
}

// keyUnion returns the union of the keys pick reads off each element of
// xs, sorted.
func keyUnion[T, V any](xs []T, pick func(T) map[string]V) []string {
	seen := make(map[string]bool)
	for _, x := range xs {
		for k := range pick(x) {
			seen[k] = true
		}
	}
	return slices.Sorted(maps.Keys(seen))
}

// Fig8Point is one day of Fig. 8: the overall gain/cost of the SCANN
// decisions and the share attributable to one highlighted detector.
type Fig8Point struct {
	Date            time.Time
	OverallGainRej  int
	OverallCostRej  int
	OverallGainAcc  int
	OverallCostAcc  int
	DetectorGainRej int
	DetectorCostRej int
	DetectorGainAcc int
	DetectorCostAcc int
}

// Fig8 computes the per-day gain/cost decomposition with one detector
// highlighted, under the named strategy (SCANN in the paper).
func Fig8(days []*DayResult, strategy, detector string) ([]Fig8Point, error) {
	var out []Fig8Point
	for _, day := range days {
		dec, err := decisions(day, strategy)
		if err != nil {
			return nil, err
		}
		overall, err := ComputeGainCost(day, dec, "")
		if err != nil {
			return nil, err
		}
		det, err := ComputeGainCost(day, dec, detector)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig8Point{
			Date:            day.Date,
			OverallGainRej:  overall.GainRej,
			OverallCostRej:  overall.CostRej,
			OverallGainAcc:  overall.GainAcc,
			OverallCostAcc:  overall.CostAcc,
			DetectorGainRej: det.GainRej,
			DetectorCostRej: det.CostRej,
			DetectorGainAcc: det.GainAcc,
			DetectorCostAcc: det.CostAcc,
		})
	}
	return out, nil
}

// Fig9Row is one bar group of Fig. 9: accepted-and-Attack community counts
// per heuristic category, for one detector (or the SCANN union).
type Fig9Row struct {
	Name       string
	ByCategory map[heuristics.Category]int
	Total      int
}

// Fig9 tallies accepted Attack communities per detector and for SCANN
// overall under the named strategy. NewHeadline compares the SCANN row
// with the most accurate detector's (paper: about twice as many anomalies).
func Fig9(days []*DayResult, strategy string) ([]Fig9Row, error) {
	names := detectorNames(days)
	rows := make([]Fig9Row, 0, len(names)+1)
	for _, n := range append(names, "SCANN") {
		rows = append(rows, Fig9Row{Name: n, ByCategory: make(map[heuristics.Category]int)})
	}
	idx := make(map[string]*Fig9Row, len(rows))
	for i := range rows {
		idx[rows[i].Name] = &rows[i]
	}
	for _, day := range days {
		dec, err := decisions(day, strategy)
		if err != nil {
			return nil, err
		}
		for i := range day.Reports {
			if !dec[i].Accepted || day.Reports[i].Class != heuristics.Attack {
				continue
			}
			cat := day.Reports[i].Category
			scann := idx["SCANN"]
			scann.ByCategory[cat]++
			scann.Total++
			for _, det := range names {
				if slices.Contains(day.Communities[i].Detectors, det) {
					r := idx[det]
					r.ByCategory[cat]++
					r.Total++
				}
			}
		}
	}
	return rows, nil
}

func detectorNames(days []*DayResult) []string {
	return keyUnion(days, func(day *DayResult) map[string]int { return day.Totals })
}

// Headline is the paper's headline comparison: the Attack communities the
// strategy accepts against those accepted from the most accurate detector —
// the one with the highest mean per-day attack ratio (KL in the paper), not
// the broadest one.
type Headline struct {
	Accepted         int    // accepted Attack communities (Fig. 9's SCANN row)
	Detector         string // the most accurate detector
	DetectorAccepted int    // accepted Attack communities it reported
}

// NewHeadline folds the days into the headline under the named strategy.
// Detectors are scanned in sorted order, so a tie in the mean attack ratio
// resolves the same way every run.
func NewHeadline(days []*DayResult, strategy string) (Headline, error) {
	rows, err := Fig9(days, strategy)
	if err != nil {
		return Headline{}, err
	}
	ratios := Ratios(days)
	var h Headline
	best := -1.0
	for _, det := range detectorNames(days) {
		var vals []float64
		for _, dr := range ratios {
			if v, ok := dr.PerDetector[det]; ok {
				vals = append(vals, v)
			}
		}
		if m := stats.Mean(vals); m > best {
			h.Detector, best = det, m
		}
	}
	for _, r := range rows {
		switch r.Name {
		case "SCANN":
			h.Accepted = r.Total
		case h.Detector:
			h.DetectorAccepted = r.Total
		}
	}
	return h, nil
}

// RenderHeadline renders the headline as one comment line, or nothing when
// the most accurate detector has no accepted Attack community to compare to.
func RenderHeadline(h Headline) string {
	if h.DetectorAccepted == 0 {
		return ""
	}
	return fmt.Sprintf("# headline: SCANN accepted %d Attack communities vs most-accurate detector %s=%d (×%.2f; paper: ≈×2 vs KL)\n",
		h.Accepted, h.Detector, h.DetectorAccepted, float64(h.Accepted)/float64(h.DetectorAccepted))
}

// Fig10 builds the PDF of the relative distance of rejected communities,
// one series per Table 1 class (Attack / Special / Unknown), under the
// named strategy.
func Fig10(days []*DayResult, strategy string) ([]stats.Series, error) {
	byClass := map[heuristics.Class][]float64{}
	for _, day := range days {
		dec, err := decisions(day, strategy)
		if err != nil {
			return nil, err
		}
		for i := range day.Reports {
			if dec[i].Accepted {
				continue
			}
			rd := dec[i].RelDistance
			if rd > 10 {
				rd = 10 // the paper plots [0,10]
			}
			byClass[day.Reports[i].Class] = append(byClass[day.Reports[i].Class], rd)
		}
	}
	var out []stats.Series
	for _, cls := range []heuristics.Class{heuristics.Attack, heuristics.Special, heuristics.Unknown} {
		out = append(out, stats.PDF(cls.String(), byClass[cls], 0, 10, 40))
	}
	return out, nil
}

// Table2 accumulates the SCANN gain/cost quadrants over all days.
func Table2(days []*DayResult, strategy string) (GainCost, error) {
	var total GainCost
	for _, day := range days {
		dec, err := decisions(day, strategy)
		if err != nil {
			return total, err
		}
		gc, err := ComputeGainCost(day, dec, "")
		if err != nil {
			return total, err
		}
		total.Add(gc)
	}
	return total, nil
}

// RenderFig5 renders the Fig. 5 buckets as a text table.
func RenderFig5(buckets []Fig5Bucket) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fig 5: communities by size bucket × #detectors (Table 1 breakdown)\n")
	fmt.Fprintf(&b, "%-12s %-9s %-8s %8s %8s %8s %8s\n", "size", "detectors", "single", "attack", "special", "unknown", "total")
	for _, bk := range buckets {
		det := "-"
		if bk.Detector != "" {
			det = bk.Detector
		}
		fmt.Fprintf(&b, "%-12s %-9d %-8s %8d %8d %8d %8d\n",
			bk.SizeBucket, bk.Detectors, det, bk.Attack, bk.Special, bk.Unknown, bk.Total())
	}
	return b.String()
}

// RenderFig9 renders the Fig. 9 rows as a text table.
func RenderFig9(rows []Fig9Row) string {
	cats := []heuristics.Category{
		heuristics.CatSasser, heuristics.CatRPC, heuristics.CatSMB, heuristics.CatPing,
		heuristics.CatNetBIOS, heuristics.CatOtherAttack,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Fig 9: accepted communities labeled Attack, by category\n")
	fmt.Fprintf(&b, "%-10s", "detector")
	for _, c := range cats {
		fmt.Fprintf(&b, " %9s", c)
	}
	fmt.Fprintf(&b, " %9s\n", "total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s", r.Name)
		for _, c := range cats {
			fmt.Fprintf(&b, " %9d", r.ByCategory[c])
		}
		fmt.Fprintf(&b, " %9d\n", r.Total)
	}
	return b.String()
}

// RenderTable2 renders Table 2.
func RenderTable2(gc GainCost, strategy string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Table 2: %s gains and losses\n", strategy)
	fmt.Fprintf(&b, "%-24s %10s %10s\n", "", "Accepted", "Rejected")
	fmt.Fprintf(&b, "%-24s %10d %10d\n", "Attack (gain_acc/cost_rej)", gc.GainAcc, gc.CostRej)
	fmt.Fprintf(&b, "%-24s %10d %10d\n", "Special+Unknown (cost_acc/gain_rej)", gc.CostAcc, gc.GainRej)
	return b.String()
}
