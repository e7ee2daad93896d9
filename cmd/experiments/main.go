// Command experiments regenerates every table and figure of the paper's
// evaluation section (§4) on the synthetic archive and prints them as text
// series. Each (granularity, date set) is labeled once: the uniflow
// estimator days feed Fig. 3's uniflow panel, Fig. 4 and Fig. 5, and one
// combiner day set feeds Figs. 6–10, the headline and Table 2.
//
// Usage:
//
//	experiments -exp all                 # everything, default scale
//	experiments -exp fig7 -step 7        # weekly sampling for time series
//	experiments -exp fig3 -months 24     # similarity estimator panels
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"mawilab/internal/detectors/suite"
	"mawilab/internal/eval"
	"mawilab/internal/mawigen"
	"mawilab/internal/stats"
	"mawilab/internal/trace"
)

// experiments are the names -exp accepts.
var experiments = []string{"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table2", "headline", "all"}

func main() {
	// Ctrl-C / SIGTERM cancels the day-level worker pool cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, labels the day sets the chosen experiment needs and
// prints its tables to stdout; progress goes to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment: "+strings.Join(experiments, ","))
		seed     = fs.Int64("seed", 2010, "archive seed")
		duration = fs.Float64("duration", 60, "seconds per daily trace")
		step     = fs.Int("step", 28, "days between samples for the 2001-2009 combiner experiments")
		months   = fs.Int("months", 0, "months sampled for fig3/4/5 (0 = every 3rd month 2001-2009)")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "worker-pool size: archive days are analyzed N at a time (1 = sequential; results are identical)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(experiments, *exp) {
		return fmt.Errorf("unknown experiment %q (want one of %s)", *exp, strings.Join(experiments, ", "))
	}

	arch := mawigen.NewArchive(*seed)
	arch.Duration = *duration
	runner := eval.NewRunner(arch, suite.Standard())
	runner.Workers = *workers

	want := func(names ...string) bool { return *exp == "all" || slices.Contains(names, *exp) }

	// Estimator dates: first day of sampled months (the paper uses the
	// first week of every month; one day per sampled month keeps the
	// default run laptop-sized).
	var estDates []time.Time
	if *months > 0 {
		d := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i < *months; i++ {
			estDates = append(estDates, d)
			d = d.AddDate(0, 1, 0)
		}
	} else {
		for y := 2001; y <= 2009; y++ {
			for m := time.January; m <= time.December; m += 3 {
				estDates = append(estDates, time.Date(y, m, 1, 0, 0, 0, 0, time.UTC))
			}
		}
	}
	// Combiner dates: every -step days across 2001-2009.
	combDates := mawigen.EverNDays(
		time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC), *step)

	if want("table1") {
		fmt.Fprintln(stdout, "# Table 1: heuristics are implemented in internal/heuristics (see its tests);")
		fmt.Fprintln(stdout, "# categories: Sasser, RPC, SMB, Ping, Other, NetBIOS | Http, dns-ftp-ssh | Unknown")
		fmt.Fprintln(stdout)
	}

	var grans []trace.Granularity
	switch {
	case want("fig3"):
		grans = eval.Fig3Granularities
	case want("fig4", "fig5"):
		grans = []trace.Granularity{trace.GranUniFlow}
	}
	estDays := make(map[trace.Granularity][]*eval.DayResult, len(grans))
	for _, g := range grans {
		days, err := runner.AtGranularity(g).Days(ctx, estDates)
		if err != nil {
			return err
		}
		estDays[g] = days
	}

	if want("fig3") {
		res, err := eval.Fig3(estDays)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, stats.RenderTable("Fig 3a: CDF of #single communities per trace", "#singles", res.SinglesCDF...))
		fmt.Fprintln(stdout, stats.RenderTable("Fig 3b: CDF of community size (>1)", "size", res.SizeCDF...))
		fmt.Fprintln(stdout, stats.RenderTable("Fig 3c: CDF of rule support (%)", "support", res.RuleSupportCDF...))
		fmt.Fprintln(stdout, stats.RenderTable("Fig 3d: PMF of rule degree", "degree", res.RuleDegreePMF...))
	}

	if want("fig4") {
		res := eval.Fig4(estDays[trace.GranUniFlow])
		fmt.Fprintln(stdout, stats.RenderTable("Fig 4: rule metrics vs community size (uniflow, smoothed)",
			"size", res.Support, res.Degree))
	}

	if want("fig5") {
		fmt.Fprintln(stdout, eval.RenderFig5(eval.Fig5(estDays[trace.GranUniFlow])))
	}

	if !want("fig6", "fig7", "fig8", "fig9", "fig10", "table2", "headline") {
		return nil
	}
	fmt.Fprintf(stderr, "running combiner pipeline on %d days (%d workers)...\n", len(combDates), *workers)
	days, err := runner.Days(ctx, combDates)
	if err != nil {
		return err
	}
	ratios := eval.Ratios(days)

	if want("fig6") {
		acc, rej, perDet := eval.Fig6(ratios)
		fmt.Fprintln(stdout, stats.RenderTable("Fig 6a: PDF of attack ratio, accepted communities", "ratio", acc...))
		fmt.Fprintln(stdout, stats.RenderTable("Fig 6b: PDF of attack ratio, rejected communities", "ratio", rej...))
		fmt.Fprintln(stdout, stats.RenderTable("Fig 6c: PDF of attack ratio per detector", "ratio", perDet...))
	}
	if want("fig7") {
		acc, rej := eval.Fig7(ratios)
		fmt.Fprintln(stdout, stats.RenderTable("Fig 7a: accepted attack ratio over time", "year", acc...))
		fmt.Fprintln(stdout, stats.RenderTable("Fig 7b: rejected attack ratio over time", "year", rej...))
	}
	if want("fig8") {
		for _, hl := range []struct{ det, panel string }{
			{"gamma", "Fig 8a: rejected communities (Gamma highlighted)"},
			{"hough", "Fig 8b: rejected communities (Hough highlighted)"},
			{"kl", "Fig 8c: accepted communities (KL highlighted)"},
		} {
			pts, err := eval.Fig8(days, "SCANN", hl.det)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "# %s\n", hl.panel)
			fmt.Fprintf(stdout, "%-12s %12s %12s %12s %12s\n", "date",
				"ovl_gainRej", hl.det+"_gainRej", "ovl_costRej", hl.det+"_costRej")
			for _, p := range pts {
				cols := []any{p.Date.Format("2006-01-02"), p.OverallGainRej, p.DetectorGainRej, p.OverallCostRej, p.DetectorCostRej}
				if hl.det == "kl" {
					cols = []any{p.Date.Format("2006-01-02"), p.OverallGainAcc, p.DetectorGainAcc, p.OverallCostAcc, p.DetectorCostAcc}
				}
				fmt.Fprintf(stdout, "%-12s %12d %12d %12d %12d\n", cols...)
			}
			fmt.Fprintln(stdout)
		}
	}
	if want("fig9", "headline") {
		rows, err := eval.Fig9(days, "SCANN")
		if err != nil {
			return err
		}
		h, err := eval.NewHeadline(days, "SCANN")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, eval.RenderFig9(rows)+eval.RenderHeadline(h))
	}
	if want("fig10") {
		series, err := eval.Fig10(days, "SCANN")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, stats.RenderTable("Fig 10: PDF of rejected-community relative distance", "reldist", series...))
	}
	if want("table2") {
		gc, err := eval.Table2(days, "SCANN")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, eval.RenderTable2(gc, "SCANN"))
	}
	return nil
}
