package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"mawilab"
	"mawilab/internal/parallel"
	"mawilab/internal/serve"
)

// The op mix of serve_mixed, by relative weight.
var (
	mixKinds   = []string{"read", "dup", "community", "health"}
	mixWeights = []float64{5, 2, 2, 1}
)

// mixedOp runs one op of the given kind against the given corpus day and
// verifies the answer.
func mixedOp(client *http.Client, base, kind string, dy *day, digest string) error {
	switch kind {
	case "read":
		csv, err := getBody(client, base+"/v1/labels/"+digest+".csv")
		if err != nil {
			return err
		}
		if got := sha(csv); got != dy.want.CSVSHA256 {
			return fmt.Errorf("read %s: csv sha256 %s, pinned %s", dy.name, got[:12], dy.want.CSVSHA256[:12])
		}
	case "dup":
		reply, err := postTrace(client, base, dy)
		if err != nil {
			return err
		}
		if !reply.Cached || reply.Digest != digest {
			return fmt.Errorf("dup %s: cached=%v digest=%s, want a cache hit on %s", dy.name, reply.Cached, reply.Digest, digest)
		}
	case "community":
		body, err := getBody(client, base+"/v1/labels/"+digest+"/communities?flows=2")
		if err != nil {
			return err
		}
		var communities []json.RawMessage
		if err := json.Unmarshal(body, &communities); err != nil {
			return err
		}
		if len(communities) != dy.want.Communities {
			return fmt.Errorf("community %s: %d communities, pinned %d", dy.name, len(communities), dy.want.Communities)
		}
	case "health":
		body, err := getBody(client, base+"/healthz")
		if err != nil {
			return err
		}
		if string(bytes.TrimSpace(body)) != "ok" {
			return fmt.Errorf("health: %q", body)
		}
	}
	return nil
}

// mixedPhase is one timed stretch of the mix against a running daemon.
type mixedPhase struct {
	seconds float64
	ops     int
	rate    float64              // ops per second: the median over blocks of rateBlock ops
	latency map[string][]float64 // by kind, successful ops only
	errs    []error
	before  promSample
	after   promSample
}

// runMix drives cfg.clients closed-loop clients for d. Client c draws its op
// kinds and digests from stream (phase, c) of the seed; digest popularity is
// Zipf(1) over the corpus in corpus order.
func runMix(ctx context.Context, cfg config, dmn *daemon, days []day, digests []string, phase uint64, d time.Duration, rec *recorder) (*mixedPhase, error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.clients}}
	defer client.CloseIdleConnections()
	ph := &mixedPhase{latency: make(map[string][]float64)}
	var err error
	if ph.before, err = dmn.scrape(client); err != nil {
		return nil, err
	}
	type sample struct {
		kind    string
		seconds float64
		at      float64 // completion, seconds since the phase began
		err     error
	}
	perClient := make([][]sample, cfg.clients)
	kinds, popularity := newPicker(mixWeights), zipf(len(days), 1)
	start := time.Now()
	deadline := start.Add(d)
	_ = parallel.ForEach(ctx, cfg.clients, cfg.clients, func(ctx context.Context, c int) error {
		rng := newStream(cfg.seed, phase*1000+uint64(c))
		for time.Now().Before(deadline) && ctx.Err() == nil {
			kind, i := mixKinds[kinds.pick(rng)], popularity.pick(rng)
			opStart := time.Now()
			err := mixedOp(client, dmn.base, kind, &days[i], digests[i])
			opEnd := time.Now()
			rec.add("serve."+kind, opStart, opEnd, 0, 0)
			perClient[c] = append(perClient[c], sample{kind, opEnd.Sub(opStart).Seconds(), opEnd.Sub(start).Seconds(), err})
		}
		return nil
	})
	ph.seconds = time.Since(start).Seconds()
	if ph.after, err = dmn.scrape(client); err != nil {
		return nil, err
	}
	var done []float64
	for _, samples := range perClient {
		for _, s := range samples {
			ph.ops++
			done = append(done, s.at)
			if s.err != nil {
				ph.errs = append(ph.errs, s.err)
				continue
			}
			ph.latency[s.kind] = append(ph.latency[s.kind], s.seconds)
		}
	}
	ph.rate = blockRate(done, ph.seconds)
	return ph, nil
}

// rateBlock is how many consecutive completions one rate sample spans: about
// half a second of the mix.
const rateBlock = 200

// blockRate is the completion rate as the median over consecutive blocks of
// rateBlock completions of (rateBlock ÷ the time the block took), so that a
// slow stretch of the box moves a few samples and not the figure. A run too
// short for two blocks falls back to completions ÷ seconds.
func blockRate(done []float64, seconds float64) float64 {
	sort.Float64s(done)
	var rates []float64
	for i := rateBlock; i < len(done); i += rateBlock {
		rates = append(rates, rateBlock/(done[i]-done[i-rateBlock]))
	}
	if len(rates) < 2 {
		return float64(len(done)) / seconds
	}
	return median(rates)
}

// runServeMixed is the serve_mixed workload.
func runServeMixed(ctx context.Context, cfg config) (*result, error) {
	res := newResult("serve_mixed")
	var (
		days    []day
		digests []string
		bin     string
		store   string
	)
	defer func() { os.RemoveAll(store) }()
	// Set-up warms a store through a first daemon and stops it; the measured
	// daemon then starts on that store, so its rusage holds no labeling work.
	err := res.setup(cfg, func() (err error) {
		os.RemoveAll(store)
		if days, err = generate(serveCorpus, cfg.exp); err != nil {
			return err
		}
		if bin, err = buildDaemon(ctx, cfg.root, cfg.work); err != nil {
			return err
		}
		if store, err = os.MkdirTemp(cfg.stores, "store-"); err != nil {
			return err
		}
		warm, err := startDaemon(ctx, bin, store)
		if err != nil {
			return err
		}
		digests = make([]string, len(days))
		for i := range days {
			op, err := uploadLabeled(http.DefaultClient, warm.base, &days[i])
			if err != nil {
				warm.stop()
				return err
			}
			digests[i] = op.digest
		}
		_, err = warm.stop()
		return err
	})
	if err != nil {
		return nil, err
	}

	dmn, err := startDaemon(ctx, bin, store)
	if err != nil {
		return nil, err
	}
	untraced, err := runMix(ctx, cfg, dmn, days, digests, 1, cfg.duration, nil)
	var traced *mixedPhase
	rec := newRecorder()
	if err == nil && cfg.traced > 0 {
		traced, err = runMix(ctx, cfg, dmn, days, digests, 2, cfg.traced, rec)
	}
	cpu, stopErr := dmn.stop()
	if err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}

	res.Ops = untraced.ops
	for _, e := range untraced.errs {
		res.fail(e)
	}
	res.OpS = median(untraced.latency["read"])
	res.OpsPerS = untraced.rate
	res.Named["mixed_ops_per_s"] = res.OpsPerS
	res.Named["read_s"] = res.OpS
	res.Named["dup_s"] = median(untraced.latency["dup"])
	res.Named["community_mean_s"] = mean(untraced.latency["community"])
	for _, kind := range mixKinds {
		res.Samples[kind+"_s"] = summarize(untraced.latency[kind])
	}
	if traced == nil {
		return res, nil
	}
	if len(traced.errs) > 0 {
		return nil, fmt.Errorf("traced mix failed: %w", traced.errs[0])
	}

	read, dup, community := sorted(traced.latency["read"]), sorted(traced.latency["dup"]), sorted(traced.latency["community"])
	res.Layer["dup_s"] = median(dup)
	res.Layer["community_mean_s"] = mean(community)
	res.Layer["serve.read_p95_s"] = percentile(read, 0.95)
	res.Layer["serve.dup_p95_s"] = percentile(dup, 0.95)
	res.Layer["serve.community_p50_s"] = median(community)
	res.Layer["serve.community_p95_s"] = percentile(community, 0.95)
	res.Layer["serve.health_s"] = median(traced.latency["health"])
	if reads := float64(len(read)); reads > 0 {
		res.Layer["store.resident_hit_ratio"] = 1 - delta(traced.before, traced.after, "mawilabd_store_disk_reads_total")/reads
	}
	hits := delta(traced.before, traced.after, "mawilabd_index_cache_hits_total")
	misses := delta(traced.before, traced.after, "mawilabd_index_cache_misses_total")
	if hits+misses > 0 {
		res.Layer["indexcache.hit_ratio"] = hits / (hits + misses)
	}
	res.Layer["serve.cpu_s_per_op"] = cpu / float64(untraced.ops+traced.ops)

	// The store's own cost, without HTTP: every entry read once in corpus
	// order, which with 16 entries and 8 resident slots always goes to disk.
	st, err := serve.OpenStore(store, 0)
	if err != nil {
		return nil, err
	}
	for i, digest := range digests {
		var csv []byte
		if err := rec.timed("store.labels", 0, 0, func() (err error) {
			csv, _, err = st.Labels(digest, "csv")
			return err
		}); err != nil {
			return nil, err
		}
		if sha(csv) != days[i].want.CSVSHA256 {
			return nil, fmt.Errorf("store entry %s differs from its pin", digest)
		}
		if err := rec.timed("store.tracepcap_decode", 0, 0, func() error {
			data, _, err := st.TracePcap(digest)
			if err != nil {
				return err
			}
			ix, err := mawilab.DecodePcap(bytes.NewReader(data))
			if err != nil {
				return err
			}
			ix.Release()
			return nil
		}); err != nil {
			return nil, err
		}
	}
	lt := selfTimes(rec.spans)
	res.Layer["store.labels_s"] = lt["store.labels"].Total / float64(len(digests))
	res.Layer["store.tracepcap_decode_s"] = lt["store.tracepcap_decode"].Total / float64(len(digests))
	return res, rec.write(cfg.spanFile("serve_mixed"))
}
