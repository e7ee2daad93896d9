package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"mawilab"
	"mawilab/internal/apriori"
	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/graphx"
	"mawilab/internal/simgraph"
)

// runBatchDay is the batch_day workload: what `mawilab -in day.pcap` does,
// closed loop, one caller.
func runBatchDay(ctx context.Context, cfg config) (*result, error) {
	res := newResult("batch_day")
	var days []day
	err := res.setup(cfg, func() (err error) {
		if days, err = generate(batchCorpus, cfg.exp); err != nil {
			return err
		}
		// One unmeasured pass, so the first timed pass does not pay for
		// growing the heap and faulting it in.
		for i := range days {
			if _, _, err := labelDay(ctx, days[i].pcap, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Untraced: passes over the corpus alternate w=1 and w=nproc until the
	// duration has elapsed; a pass is never cut short, so every day weighs
	// the same in every figure. A day's labeling time is its median over the
	// passes: a scheduling hiccup or a GC cycle then moves one sample of one
	// day, where it would move a whole pass total.
	var (
		widths     = [2]int{1, cfg.nproc}
		times      [2][][]float64 // [w=1 | w=nproc][day] seconds, one value per pass
		perDay     []float64      // every w=1 sample
		bytesPass  []float64
		allocsPass []float64
		busy       time.Duration
		rng        = newStream(cfg.seed, 1)
		ms0, ms1   runtime.MemStats
	)
	for k := range times {
		times[k] = make([][]float64, len(days))
	}
	for busy < cfg.duration {
		for k, w := range widths {
			order := rng.perm(len(days))
			runtime.ReadMemStats(&ms0)
			passStart := time.Now()
			for _, i := range order {
				start := time.Now()
				csv, l, err := labelDay(ctx, days[i].pcap, w)
				took := time.Since(start).Seconds()
				times[k][i] = append(times[k][i], took)
				if k == 0 {
					perDay = append(perDay, took)
				}
				if err == nil {
					err = days[i].want.check(csv, len(l.Alarms), len(l.Reports))
				}
				res.op(err)
			}
			busy += time.Since(passStart)
			if k == 0 {
				runtime.ReadMemStats(&ms1)
				bytesPass = append(bytesPass, float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(len(days)))
				allocsPass = append(allocsPass, float64(ms1.Mallocs-ms0.Mallocs)/float64(len(days)))
			}
		}
	}
	var seq, par []float64 // per day
	for i := range days {
		seq = append(seq, median(times[0][i]))
		par = append(par, median(times[1][i]))
	}
	res.OpS = mean(seq)
	res.OpsPerS = 2 / (mean(seq) + mean(par))
	res.Named["day_label_s"] = mean(seq)
	res.Named["day_label_par_s"] = mean(par)
	res.Samples["day_label_s"] = summarize(perDay)
	res.Layer["day_label_par_s"] = mean(par)
	res.Layer["batch.par_speedup"] = mean(seq) / mean(par)
	res.Layer["batch.day_label_p90_s"] = percentile(sorted(perDay), 0.90)
	res.Layer["batch.alloc_bytes_per_day"] = median(bytesPass)
	res.Layer["batch.allocs_per_day"] = median(allocsPass)
	if len(perDay) < 100 {
		res.note("batch.day_label_p90_s rests on %d samples (fewer than 100): read it as an order statistic, not a gate", len(perDay))
	}
	if cfg.traced > 0 {
		if err := traceBatchDay(ctx, cfg, days, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// labelDay is one batch_day op: pcap bytes in, CSV bytes out.
func labelDay(ctx context.Context, pcap []byte, workers int) ([]byte, *mawilab.Labeling, error) {
	tr, err := mawilab.ReadPcap(bytes.NewReader(pcap))
	if err != nil {
		return nil, nil, err
	}
	l, err := mawilab.NewPipeline().Parallelism(workers).RunContext(ctx, tr)
	if err != nil {
		return nil, nil, err
	}
	var csv bytes.Buffer
	if err := l.WriteCSV(&csv); err != nil {
		return nil, nil, err
	}
	return csv.Bytes(), l, nil
}

// traceBatchDay replays the op layer by layer with a span around each call,
// in the order Pipeline.runAlarms makes them, and requires the same CSV. The
// spans under a "day" op are the blocking path: their self times plus the
// op's own self time (the unaccounted remainder) sum to the traced total.
// Spans under a "split" op re-run parts of detect, estimate and label on
// their own — core.Result cannot be assembled outside core, so the split of
// EstimateContext is measured beside it, not inside it.
func traceBatchDay(ctx context.Context, cfg config, days []day, res *result) error {
	rec := newRecorder()
	counts := make(map[string]float64)
	var busy time.Duration
	passes := 0
	for busy < cfg.traced {
		clear(counts)
		for i := range days {
			took, err := replayDay(ctx, rec, &days[i], counts)
			if err != nil {
				return fmt.Errorf("traced replay of %s: %w", days[i].name, err)
			}
			busy += took
		}
		passes++
	}
	n := float64(passes * len(days))
	lt := selfTimes(rec.spans)
	for _, name := range []string{
		"pcap.read", "trace.seal", "detectors.all", "core.estimate", "core.scann", "core.label", "wire.csv",
		"detectors.pca", "detectors.gamma", "detectors.hough", "detectors.kl",
		"core.extract", "simgraph.build", "graphx.louvain", "core.union", "apriori.mine",
	} {
		res.Layer[name+"_s"] = lt[name].Total / n
	}
	for _, name := range []string{"trace.packets", "trace.flows", "detectors.alarms", "simgraph.edges", "graphx.communities", "core.anomalous"} {
		res.Layer[name] = counts[name]
	}
	res.Layer["core.truth_recall"] = counts["truth.detected"] / counts["truth.total"]
	res.Layer["batch.unaccounted_share"] = lt["day"].Self / lt["day"].Total
	res.Layer["batch.trace_overhead_share"] = (lt["day"].Total/n - res.OpS) / res.OpS
	return rec.write(cfg.spanFile("batch_day"))
}

// replayDay records one traced day and returns the time its blocking path
// took. counts accumulates the work done, which must repeat exactly.
func replayDay(ctx context.Context, rec *recorder, dy *day, counts map[string]float64) (time.Duration, error) {
	p := mawilab.NewPipeline()
	start := time.Now()
	op := rec.open("day", 0, 0)
	var (
		tr     *mawilab.Trace
		seg    *mawilab.Segment
		alarms []mawilab.Alarm
		totals map[string]int
		est    *core.Result
		dec    []mawilab.Decision
		rep    []mawilab.CommunityReport
		csv    bytes.Buffer
	)
	err := rec.run(op, []step{
		{"pcap.read", func() (err error) { tr, err = mawilab.ReadPcap(bytes.NewReader(dy.pcap)); return }},
		{"trace.seal", func() (err error) { seg, err = mawilab.SealTrace(ctx, tr, 1); return }},
		{"detectors.all", func() (err error) {
			alarms, totals, err = detectors.DetectAllContext(ctx, seg.Index, p.Detectors, 1)
			return
		}},
		{"core.estimate", func() (err error) { est, err = core.EstimateContext(ctx, seg.Index, alarms, p.Estimator, 1); return }},
		{"core.scann", func() (err error) { dec, err = p.Strategy.Classify(est, est.Confidences(totals)); return }},
		{"core.label", func() (err error) {
			opts := core.DefaultReportOptions()
			opts.RuleSupport = p.RuleSupport
			rep, err = core.BuildReportsContext(ctx, est, dec, opts, 1)
			return
		}},
		{"wire.csv", func() error { return (&mawilab.Labeling{Reports: rep}).WriteCSV(&csv) }},
	})
	if err != nil {
		return 0, err
	}
	end := time.Now()
	rec.close(op, start, end)
	if err := dy.want.check(csv.Bytes(), len(alarms), len(rep)); err != nil {
		return 0, err
	}

	// The split passes, outside the blocking path.
	split := rec.open("split", 0, 0)
	splitStart := time.Now()
	ix := seg.Index
	for _, det := range p.Detectors {
		if err := rec.timed("detectors."+det.Name(), split, split, func() error {
			for c := 0; c < det.NumConfigs(); c++ {
				if _, err := det.Detect(ix, c); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return 0, err
		}
	}
	ext := core.NewExtractor(ix, p.Estimator.Granularity)
	sets := make([]*core.TrafficSet, len(alarms))
	ids := make([]simgraph.Set, len(alarms))
	_ = rec.timed("core.extract", split, split, func() error {
		for i := range alarms {
			sets[i] = ext.Extract(&alarms[i])
			ids[i] = sets[i].IDs
		}
		return nil
	})
	var g *graphx.Graph
	if err := rec.timed("simgraph.build", split, split, func() (err error) {
		g, err = simgraph.Build(ctx, ids, simgraph.Config{Measure: p.Estimator.Measure, MinSimilarity: p.Estimator.MinSimilarity, Workers: 1})
		return
	}); err != nil {
		return 0, err
	}
	var assignment []int
	if err := rec.timed("graphx.louvain", split, split, func() (err error) {
		assignment, err = g.LouvainContext(ctx, 1)
		return
	}); err != nil {
		return 0, err
	}
	members := graphx.Members(assignment)
	if len(members) != len(est.Communities) {
		return 0, fmt.Errorf("split estimate found %d communities, EstimateContext %d", len(members), len(est.Communities))
	}
	_ = rec.timed("core.union", split, split, func() error {
		for id := 0; id < len(members); id++ {
			memberSets := make([]*core.TrafficSet, len(members[id]))
			for i, ai := range members[id] {
				memberSets[i] = sets[ai]
			}
			ext.Union(memberSets)
		}
		return nil
	})
	_ = rec.timed("apriori.mine", split, split, func() error {
		for ci := range est.Communities {
			flows := est.Communities[ci].Traffic.Flows
			txs := make([]apriori.Transaction, len(flows))
			for i, k := range flows {
				txs[i] = apriori.FromFlow(k)
			}
			apriori.Maximal(apriori.Mine(txs, p.RuleSupport))
		}
		return nil
	})
	rec.close(split, splitStart, time.Now())

	l := &mawilab.Labeling{Alarms: alarms, Result: est, Decisions: dec, Reports: rep}
	detected, total := mawilab.GroundTruthEval(tr, l, dy.truth, 10)
	counts["trace.packets"] += float64(ix.Len())
	counts["trace.flows"] += float64(ix.Flows())
	counts["detectors.alarms"] += float64(len(alarms))
	counts["simgraph.edges"] += float64(est.Graph.EdgeCount())
	counts["graphx.communities"] += float64(len(est.Communities))
	counts["core.anomalous"] += float64(len(l.Anomalies()))
	counts["truth.detected"] += float64(detected)
	counts["truth.total"] += float64(total)
	return end.Sub(start), nil
}
