package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"mawilab"
	"mawilab/internal/parallel"
)

// streamShape is the sliding window of stream_sliding: 15 s segments, windows
// of four advancing by one, so three quarters of every window was already in
// the previous one.
var streamShape = mawilab.StreamConfig{SegmentSeconds: 15, WindowSegments: 4, WindowStride: 1}

// feedBuffer is the capacity of the packet channel: enough that the feeder is
// never the bottleneck, small enough that back-pressure from the engine
// reaches it within a few dozen packets.
const feedBuffer = 64

// feed sends pkts into ch as fast as the receiver accepts, closes ch, and
// returns when each segment of the grid was sealed from the sender's side:
// the instant before sending the first packet of the next segment, and for
// the last segment the instant before the close.
func feed(ctx context.Context, pkts []mawilab.Packet, ch chan<- mawilab.Packet) ([]time.Time, error) {
	defer close(ch)
	stepUS := int64(streamShape.SegmentSeconds * 1e6)
	var seals []time.Time
	bucket := int64(-1)
	for i := range pkts {
		if b := pkts[i].TS / stepUS; b != bucket {
			if bucket >= 0 {
				seals = append(seals, time.Now())
			}
			bucket = b
		}
		select {
		case ch <- pkts[i]:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return append(seals, time.Now()), nil
}

// windowCloses maps segment seal times to window close times by replaying
// the engine's window bookkeeping: a window closes when its last segment
// seals, and a final partial window closes with the stream.
func windowCloses(seals []time.Time) []time.Time {
	window, stride := streamShape.WindowSegments, streamShape.WindowStride
	var closes []time.Time
	pending, fresh := 0, 0
	for _, at := range seals {
		pending++
		fresh++
		if pending == window {
			closes = append(closes, at)
			pending -= stride
			fresh = 0
		}
	}
	if fresh > 0 && pending > 0 {
		closes = append(closes, seals[len(seals)-1])
	}
	return closes
}

// streamPass is one day streamed through RunStream.
type streamPass struct {
	seconds     float64   // first send to last window received
	latencies   []float64 // per window: closed by the feeder to received
	gaps        []float64 // between consecutive windows received
	csv         []byte    // the windows' CSVs, concatenated in emission order
	alarms      int
	communities int
}

// streamDay is one stream_sliding pass. observe, when non-nil, is installed
// as the pipeline's Observe hook.
func streamDay(ctx context.Context, dy day, observe func(mawilab.Stage, float64)) (*streamPass, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // unblocks the feeder if the engine stops early
	p := mawilab.NewPipeline()
	p.Workers = 1
	p.Stream = streamShape
	p.Observe = observe

	ch := make(chan mawilab.Packet, feedBuffer)
	var seals []time.Time
	pool := parallel.NewPool(ctx, 1)
	start := time.Now()
	pool.Go(func(ctx context.Context) (err error) {
		seals, err = feed(ctx, dy.trace.Packets, ch)
		return err
	})
	s := p.RunStream(ctx, ch)
	var (
		wins []*mawilab.WindowLabeling
		recv []time.Time
	)
	for w := range s.Windows() {
		recv = append(recv, time.Now())
		wins = append(wins, w)
	}
	end := time.Now()
	err := s.Wait()
	cancel()
	if ferr := pool.Wait(); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	closes := windowCloses(seals)
	if len(closes) != len(recv) {
		return nil, fmt.Errorf("%s: %d windows received, %d closed by the feeder", dy.name, len(recv), len(closes))
	}
	pass := &streamPass{seconds: end.Sub(start).Seconds()}
	var csv bytes.Buffer
	for i, w := range wins {
		pass.latencies = append(pass.latencies, recv[i].Sub(closes[i]).Seconds())
		if i > 0 {
			pass.gaps = append(pass.gaps, recv[i].Sub(recv[i-1]).Seconds())
		}
		pass.alarms += len(w.Labeling.Alarms)
		pass.communities += len(w.Labeling.Reports)
		if err := w.Labeling.WriteCSV(&csv); err != nil {
			return nil, err
		}
	}
	pass.csv = csv.Bytes()
	return pass, nil
}

func (pass *streamPass) check(want expectedDay) error {
	if len(pass.latencies) != want.Windows {
		return fmt.Errorf("%s: %d windows, pinned %d", want.Day, len(pass.latencies), want.Windows)
	}
	return want.check(pass.csv, pass.alarms, pass.communities)
}

// streamCycle is one pass over every corpus day in a seeded order.
type streamCycle struct {
	seconds, packets, windows, alarms, communities float64
	latencies, gaps                                []float64
}

func streamCorpusOnce(ctx context.Context, days []day, order []int, res *result, observe func(mawilab.Stage, float64)) (streamCycle, error) {
	var c streamCycle
	for _, i := range order {
		pass, err := streamDay(ctx, days[i], observe)
		if err != nil {
			return c, fmt.Errorf("streaming %s: %w", days[i].name, err)
		}
		failed := pass.check(days[i].want)
		for range pass.latencies { // one op per window
			res.op(failed)
		}
		c.seconds += pass.seconds
		c.packets += float64(days[i].packets)
		c.windows += float64(len(pass.latencies))
		c.alarms += float64(pass.alarms)
		c.communities += float64(pass.communities)
		c.latencies = append(c.latencies, pass.latencies...)
		c.gaps = append(c.gaps, pass.gaps...)
	}
	return c, nil
}

// runStreamSliding is the stream_sliding workload.
func runStreamSliding(ctx context.Context, cfg config) (*result, error) {
	res := newResult("stream_sliding")
	var days []day
	err := res.setup(cfg, func() (err error) {
		if days, err = generate(streamCorpus, cfg.exp); err != nil {
			return err
		}
		// A quarter of a day streamed unmeasured, so the first timed pass
		// does not pay for growing the heap and faulting it in.
		warm := days[0]
		warm.trace = &mawilab.Trace{Packets: warm.trace.Packets[:warm.packets/4]}
		_, err = streamDay(ctx, warm, nil)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Untraced: whole cycles over the corpus until the duration has elapsed.
	var (
		rng       = newStream(cfg.seed, 1)
		busy      float64
		last      streamCycle
		rate      []float64 // packets per second, one value per cycle
		cycleSecs []float64
		allocs    []float64 // bytes per packet, one value per cycle
		latencies []float64
		gaps      []float64
		ms0, ms1  runtime.MemStats
	)
	for busy < cfg.duration.Seconds() {
		runtime.ReadMemStats(&ms0)
		c, err := streamCorpusOnce(ctx, days, rng.perm(len(days)), res, nil)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		busy += c.seconds
		rate = append(rate, c.packets/c.seconds)
		cycleSecs = append(cycleSecs, c.seconds)
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/c.packets)
		latencies = append(latencies, c.latencies...)
		gaps = append(gaps, c.gaps...)
		last = c
	}
	// The window rate is the steady-state one, 1 ÷ the median interval between
	// consecutive windows of a day: windows ÷ seconds is a mean, and on a box
	// with noisy neighbours one slow stretch moves a mean but not a median.
	res.OpS = median(latencies)
	res.OpsPerS = 1 / median(gaps)
	res.Named["window_label_s"] = res.OpS
	res.Named["stream_pkts_per_s"] = median(rate)
	res.Samples["window_label_s"] = summarize(latencies)
	res.Layer["stream_pkts_per_s"] = median(rate)
	res.Layer["stream.window_label_p95_s"] = percentile(sorted(latencies), 0.95)
	res.Layer["stream.alloc_bytes_per_pkt"] = median(allocs)
	res.Layer["stream.windows"] = last.windows
	res.Layer["stream.alarms_per_window"] = last.alarms / last.windows
	res.Layer["stream.communities_per_window"] = last.communities / last.windows
	if cfg.traced > 0 {
		if err := traceStreamSliding(ctx, cfg, days, res, median(cycleSecs)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceStreamSliding attributes a cycle from outside the engine: the public
// Observe hook gives the four stages as spans under each pass, a standalone
// mawilab.Segments drain of the same packets prices sealing plus the channel
// receive, and Pipeline.Run over the same packets is the batch cost the
// sliding window is compared with. untraced is the untraced cycle time.
func traceStreamSliding(ctx context.Context, cfg config, days []day, res *result, untraced float64) error {
	rec := newRecorder()
	var traced []float64
	var busy float64
	traceRes := newResult(res.Workload) // ops of the traced phase are verified, not counted
	for busy < cfg.traced.Seconds() {
		var pass int
		observe := func(stage mawilab.Stage, seconds float64) {
			end := time.Now()
			rec.add("stream."+string(stage), end.Add(-time.Duration(seconds*float64(time.Second))), end, pass, pass)
		}
		var cycle float64
		for i := range days {
			pass = rec.open("pass", 0, 0)
			start := time.Now()
			c, err := streamCorpusOnce(ctx, days, []int{i}, traceRes, observe)
			if err != nil {
				return err
			}
			rec.close(pass, start, start.Add(time.Duration(c.seconds*float64(time.Second))))
			cycle += c.seconds
		}
		traced = append(traced, cycle)
		busy += cycle
	}
	if traceRes.Failed > 0 {
		return fmt.Errorf("traced stream differs from the pinned output: %s", traceRes.Errors[0])
	}

	var drain, batch, packets float64
	for _, dy := range days {
		ch := make(chan mawilab.Packet, feedBuffer)
		pool := parallel.NewPool(ctx, 1)
		start := time.Now()
		pool.Go(func(ctx context.Context) error {
			_, err := feed(ctx, dy.trace.Packets, ch)
			return err
		})
		for _, err := range mawilab.Segments(ctx, ch, streamShape.SegmentSeconds, 1) {
			if err != nil {
				return err
			}
		}
		end := time.Now()
		if err := pool.Wait(); err != nil {
			return err
		}
		rec.add("trace.segments", start, end, 0, 0)
		drain += end.Sub(start).Seconds()
		packets += float64(dy.packets)

		start = time.Now()
		if _, err := mawilab.NewPipeline().RunContext(ctx, dy.trace); err != nil {
			return err
		}
		end = time.Now()
		rec.add("pipeline.run", start, end, 0, 0)
		batch += end.Sub(start).Seconds()
	}

	lt := selfTimes(rec.spans)
	passes := float64(lt["pass"].Calls)
	cycles := float64(len(traced))
	staged := 0.0
	for _, stage := range []string{"ingest", "detect", "estimate", "label"} {
		st := lt["stream."+stage]
		res.Layer["stream."+stage+"_s"] = st.Total / passes
		res.Layer["stream."+stage+"_calls"] = float64(st.Calls) / cycles
		staged += st.Total / cycles
	}
	res.Layer["trace.segments_ns_per_pkt"] = drain / packets * 1e9
	res.Layer["stream.cost_ratio_vs_batch"] = untraced / batch
	res.Layer["stream.unaccounted_share"] = 1 - (staged+drain)/median(traced)
	res.Layer["stream.trace_overhead_share"] = (median(traced) - untraced) / untraced
	return rec.write(cfg.spanFile("stream_sliding"))
}
