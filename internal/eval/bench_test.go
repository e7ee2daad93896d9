package eval

// One testing.B benchmark per figure and table of the paper's evaluation
// section, plus one for the labeling they all fold. BenchmarkRunnerDays
// times labeling archive days through the shipped pipeline; each figure row
// labels its scaled-down day set once, outside the timer, and times only its
// fold, reporting the headline quantity as a custom metric — so
// `go test -run '^$' -bench . ./internal/eval` both times the harness and
// validates the reproduced shape; cmd/experiments prints the full series.

import (
	"context"
	"testing"
	"time"

	"mawilab/internal/detectors/suite"
	"mawilab/internal/mawigen"
	"mawilab/internal/stats"
	"mawilab/internal/trace"
)

// benchArchive returns a reduced-scale archive for bounded bench times.
func benchArchive() *mawigen.Archive {
	arch := mawigen.NewArchive(2010)
	arch.Duration = 45
	arch.BaseRate = 250
	return arch
}

func benchDates(n, stepDays int) []time.Time {
	out := make([]time.Time, n)
	d := time.Date(2004, 4, 5, 0, 0, 0, 0, time.UTC)
	for i := range out {
		out[i] = d.AddDate(0, 0, i*stepDays)
	}
	return out
}

// benchDays labels the bench archive's days at dates with r.
func benchDays(b *testing.B, r *Runner, dates []time.Time) []*DayResult {
	b.Helper()
	days, err := r.Days(context.Background(), dates)
	if err != nil {
		b.Fatal(err)
	}
	return days
}

// BenchmarkRunnerDays labels two archive days — the work every figure
// below folds.
func BenchmarkRunnerDays(b *testing.B) {
	b.ReportAllocs()
	runner := NewRunner(benchArchive(), suite.Standard())
	dates := benchDates(2, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if days := benchDays(b, runner, dates); len(days) != len(dates) {
			b.Fatal("missing days")
		}
	}
}

// BenchmarkFig3 folds the similarity-estimator panels (3 granularities).
func BenchmarkFig3(b *testing.B) {
	b.ReportAllocs()
	runner := NewRunner(benchArchive(), suite.Standard())
	byGran := make(map[trace.Granularity][]*DayResult)
	for _, g := range Fig3Granularities {
		byGran[g] = benchDays(b, runner.AtGranularity(g), benchDates(2, 30))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Fig3(byGran)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.SinglesCDF) != 3 {
			b.Fatal("missing granularity series")
		}
	}
}

// BenchmarkFig4 folds rule metrics vs community size.
func BenchmarkFig4(b *testing.B) {
	b.ReportAllocs()
	days := benchDays(b, NewRunner(benchArchive(), suite.Standard()), benchDates(2, 30))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := Fig4(days); len(res.Support.Points) == 0 {
			b.Fatal("empty fig4")
		}
	}
}

// BenchmarkFig5 folds the community-landscape buckets.
func BenchmarkFig5(b *testing.B) {
	b.ReportAllocs()
	days := benchDays(b, NewRunner(benchArchive(), suite.Standard()), benchDates(2, 30))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buckets := Fig5(days); len(buckets) == 0 {
			b.Fatal("no buckets")
		}
	}
}

// benchRatios labels the combiner days once for the Fig 6-10 benches.
func benchRatios(b *testing.B, nDays int) ([]DayRatios, []*DayResult) {
	b.Helper()
	days := benchDays(b, NewRunner(benchArchive(), suite.Standard()), benchDates(nDays, 45))
	return Ratios(days), days
}

// BenchmarkFig6 regenerates the attack-ratio PDFs and reports the mean
// SCANN accepted attack ratio as a metric (paper: SCANN is the best
// strategy for accepted communities).
func BenchmarkFig6(b *testing.B) {
	b.ReportAllocs()
	ratios, _ := benchRatios(b, 3)
	b.ResetTimer()
	var scannMean float64
	for i := 0; i < b.N; i++ {
		acc, rej, per := Fig6(ratios)
		if len(acc) == 0 || len(rej) == 0 || len(per) == 0 {
			b.Fatal("missing fig6 series")
		}
		var vals []float64
		for _, dr := range ratios {
			vals = append(vals, dr.Accepted["SCANN"])
		}
		scannMean = stats.Mean(vals)
	}
	b.ReportMetric(scannMean, "scann_acc_ratio")
}

// BenchmarkFig7 regenerates the attack-ratio time series.
func BenchmarkFig7(b *testing.B) {
	b.ReportAllocs()
	ratios, _ := benchRatios(b, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, rej := Fig7(ratios)
		if len(acc) == 0 || len(rej) == 0 {
			b.Fatal("missing fig7 series")
		}
	}
}

// BenchmarkFig8 regenerates the gain/cost decomposition for the three
// highlighted detectors.
func BenchmarkFig8(b *testing.B) {
	b.ReportAllocs()
	_, days := benchRatios(b, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, det := range []string{"gamma", "hough", "kl"} {
			pts, err := Fig8(days, "SCANN", det)
			if err != nil {
				b.Fatal(err)
			}
			if len(pts) == 0 {
				b.Fatal("no fig8 points")
			}
		}
	}
}

// BenchmarkFig9 regenerates the accepted-Attack breakdown and reports the
// SCANN-to-best-detector ratio (paper headline: ≈2× the most accurate
// detector).
func BenchmarkFig9(b *testing.B) {
	b.ReportAllocs()
	_, days := benchRatios(b, 3)
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := Fig9(days, "SCANN")
		if err != nil {
			b.Fatal(err)
		}
		scann, best := 0, 0
		for _, r := range rows {
			if r.Name == "SCANN" {
				scann = r.Total
			} else if r.Total > best {
				best = r.Total
			}
		}
		if best > 0 {
			ratio = float64(scann) / float64(best)
		}
	}
	b.ReportMetric(ratio, "scann_vs_best")
}

// BenchmarkFig10 regenerates the relative-distance PDFs.
func BenchmarkFig10(b *testing.B) {
	b.ReportAllocs()
	_, days := benchRatios(b, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := Fig10(days, "SCANN")
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 3 {
			b.Fatal("fig10 classes missing")
		}
	}
}

// BenchmarkTable2 regenerates the SCANN gain/cost quadrants.
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	_, days := benchRatios(b, 3)
	b.ResetTimer()
	var gainAcc float64
	for i := 0; i < b.N; i++ {
		gc, err := Table2(days, "SCANN")
		if err != nil {
			b.Fatal(err)
		}
		gainAcc = float64(gc.GainAcc)
	}
	b.ReportMetric(gainAcc, "gain_acc")
}
