package main

// metricDef names one metric. The tables below are the benchmark's metric
// dictionary in code; BENCHMARK.json and README.md are checked against them
// by the tests, so a name exists in exactly one spelling.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the reference median by which the metric may
	// worsen before it counts as a regression; 0 marks a diagnostic.
	Bound float64
}

// gated are the end-to-end metrics of BENCHMARK.json. The contract has every
// run report every end-to-end metric, so they are defined per workload by
// role rather than by name: op_s is the median latency of the workload's
// user-visible operation and ops_per_s its completion rate.
//
//	workload        op                       op_s is            ops_per_s is
//	batch_day       one day labeled          day_label_s        days ÷ s over alternating w=1 / w=nproc passes
//	stream_sliding  one window labeled       window_label_s     windows ÷ s (∝ stream_pkts_per_s: the corpus is fixed)
//	serve_upload    one upload labeled       upload_labeled_s   uploads_per_s
//	serve_mixed     one op of the mix        read_s             mixed_ops_per_s
var gated = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
}

// named are the other eleven of the twelve end-to-end metrics (setup_s is
// gated under its own name) as report mode prints them; -repeat checks each
// against its bound. Those a gated metric does not carry (day_label_par_s,
// upload_labeled_p90_s, dup_s, community_mean_s) are also per-layer
// diagnostics in BENCHMARK.json.
var named = []metricDef{
	{"day_label_s", "s", "lower", 0.10},
	{"day_label_par_s", "s", "lower", 0.10},
	{"stream_pkts_per_s", "pkt/s", "higher", 0.10},
	{"window_label_s", "s", "lower", 0.10},
	{"upload_labeled_s", "s", "lower", 0.10},
	{"upload_labeled_p90_s", "s", "lower", 0.20},
	{"uploads_per_s", "1/s", "higher", 0.10},
	{"mixed_ops_per_s", "1/s", "higher", 0.10},
	{"dup_s", "s", "lower", 0.10},
	{"read_s", "s", "lower", 0.15},
	{"community_mean_s", "s", "lower", 0.15},
}

// perLayer are the per-layer metrics of BENCHMARK.json, in report order. A
// time is the mean seconds per operation of the workload that measures it; a
// count is the total over one pass of that workload's corpus and must repeat
// exactly. A traced contract run reports every one of them, 0 for those the
// run's workload does not exercise.
var perLayer = []metricDef{
	// batch_day traced replay: the blocking path …
	{"pcap.read_s", "s", "lower", 0},
	{"trace.seal_s", "s", "lower", 0},
	{"detectors.all_s", "s", "lower", 0},
	{"core.estimate_s", "s", "lower", 0},
	{"core.scann_s", "s", "lower", 0},
	{"core.label_s", "s", "lower", 0},
	{"wire.csv_s", "s", "lower", 0},
	// … and the separate passes that split detect, estimate and label.
	{"detectors.pca_s", "s", "lower", 0},
	{"detectors.gamma_s", "s", "lower", 0},
	{"detectors.hough_s", "s", "lower", 0},
	{"detectors.kl_s", "s", "lower", 0},
	{"core.extract_s", "s", "lower", 0},
	{"simgraph.build_s", "s", "lower", 0},
	{"graphx.louvain_s", "s", "lower", 0},
	{"core.union_s", "s", "lower", 0},
	{"apriori.mine_s", "s", "lower", 0},
	{"trace.packets", "count", "lower", 0},
	{"trace.flows", "count", "lower", 0},
	{"detectors.alarms", "count", "lower", 0},
	{"simgraph.edges", "count", "lower", 0},
	{"graphx.communities", "count", "lower", 0},
	{"core.anomalous", "count", "higher", 0},
	{"core.truth_recall", "ratio", "higher", 0},
	{"batch.unaccounted_share", "ratio", "lower", 0},
	{"batch.trace_overhead_share", "ratio", "lower", 0},
	{"batch.par_speedup", "ratio", "higher", 0},
	{"batch.day_label_p90_s", "s", "lower", 0},
	{"batch.alloc_bytes_per_day", "B", "lower", 0},
	{"batch.allocs_per_day", "allocs", "lower", 0},
	{"day_label_par_s", "s", "lower", 0},

	// stream_sliding: Pipeline.Observe stages and a standalone Segments drain.
	{"stream.ingest_s", "s", "lower", 0},
	{"stream.detect_s", "s", "lower", 0},
	{"stream.estimate_s", "s", "lower", 0},
	{"stream.label_s", "s", "lower", 0},
	{"stream.ingest_calls", "count", "lower", 0},
	{"stream.detect_calls", "count", "lower", 0},
	{"stream.estimate_calls", "count", "lower", 0},
	{"stream.label_calls", "count", "lower", 0},
	{"trace.segments_ns_per_pkt", "ns/pkt", "lower", 0},
	{"stream.windows", "count", "lower", 0},
	{"stream.alarms_per_window", "count", "lower", 0},
	{"stream.communities_per_window", "count", "lower", 0},
	{"stream.cost_ratio_vs_batch", "ratio", "lower", 0},
	{"stream.window_label_p95_s", "s", "lower", 0},
	{"stream.unaccounted_share", "ratio", "lower", 0},
	{"stream.trace_overhead_share", "ratio", "lower", 0},
	{"stream.alloc_bytes_per_pkt", "B", "lower", 0},
	{"stream_pkts_per_s", "pkt/s", "higher", 0},

	// serve_upload: client spans, /v1/jobs timestamps, /metrics deltas, the
	// child's rusage, and the in-process replay of the job.
	{"serve.post_s", "s", "lower", 0},
	{"engine.queue_wait_s", "s", "lower", 0},
	{"engine.queue_wait_p90_s", "s", "lower", 0},
	{"engine.job_s", "s", "lower", 0},
	{"serve.stage_ingest_s", "s", "lower", 0},
	{"serve.stage_detect_s", "s", "lower", 0},
	{"serve.stage_estimate_s", "s", "lower", 0},
	{"serve.stage_label_s", "s", "lower", 0},
	{"serve.job_tail_s", "s", "lower", 0},
	{"serve.polls_per_upload", "polls", "lower", 0},
	{"serve.upload_mb_per_s", "MB/s", "higher", 0},
	{"serve.cpu_s_per_upload", "s", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.cache_misses", "count", "lower", 0},
	{"serve.unaccounted_share", "ratio", "lower", 0},
	{"serve.trace_overhead_share", "ratio", "lower", 0},
	{"pcap.decode_s", "s", "lower", 0},
	{"trace.digest_s", "s", "lower", 0},
	{"pipeline.runindex_s", "s", "lower", 0},
	{"wire.admd_s", "s", "lower", 0},
	{"pcap.encode_s", "s", "lower", 0},
	{"store.put_s", "s", "lower", 0},
	{"upload_labeled_p90_s", "s", "lower", 0},

	// serve_mixed: client latencies, /metrics deltas, direct store calls.
	{"dup_s", "s", "lower", 0},
	{"community_mean_s", "s", "lower", 0},
	{"serve.read_p95_s", "s", "lower", 0},
	{"serve.dup_p95_s", "s", "lower", 0},
	{"serve.community_p50_s", "s", "lower", 0},
	{"serve.community_p95_s", "s", "lower", 0},
	{"serve.health_s", "s", "lower", 0},
	{"store.resident_hit_ratio", "ratio", "higher", 0},
	{"indexcache.hit_ratio", "ratio", "higher", 0},
	{"store.labels_s", "s", "lower", 0},
	{"store.tracepcap_decode_s", "s", "lower", 0},
	{"serve.cpu_s_per_op", "s", "lower", 0},
}
