package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// config is what every workload run is given.
type config struct {
	seed     int64
	duration time.Duration // untraced measurement
	traced   time.Duration // traced measurement; 0 skips it
	setups   int           // set-up runs this many times and reports its median
	nproc    int
	clients  int       // closed-loop clients of the serve workloads
	root     string    // module root, where the daemon is built from
	work     string    // the daemon binary
	stores   string    // label stores
	out      string    // span files and mawibench.json
	exp      *expected // pinned references
}

func (c config) spanFile(workload string) string {
	return filepath.Join(c.out, "mawibench-trace-"+workload+".json")
}

// workload is one entry of BENCHMARK.json's workload list.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, cfg config) (*result, error)
}

var workloads = []workload{
	{"batch_day", "one caller labels whole days: detectors, SealTrace/BuildIndex, extract and simgraph do the work and the window machinery, HTTP and the store none - the one-window control", runBatchDay},
	{"stream_sliding", "RunStream with 75% window overlap: window re-indexing, re-extraction and re-clustering are ~40% of a pass and the per-packet channel is on the path", runStreamSliding},
	{"serve_upload", "cache-miss uploads to a real mawilabd child: admission, queue wait, the job, encode, pcap re-encode and Store.Put all block the client", runServeUpload},
	{"serve_mixed", "reads and cache-hit re-uploads beside each other, Zipf over more digests than either cache holds: only decode+digest, the store LRU and the index cache work", runServeMixed},
}

// result is what one workload run measured.
type result struct {
	Workload string `json:"workload"`
	Ops      int    `json:"ops"`
	Failed   int    `json:"failed"`
	// SetupS, OpS and OpsPerS are the gated end-to-end metrics.
	SetupS  float64 `json:"setup_s"`
	OpS     float64 `json:"op_s"`
	OpsPerS float64 `json:"ops_per_s"`
	// Named holds the end-to-end metrics under their own names, Layer the
	// per-layer metrics, Samples the latency summaries with sample counts.
	Named   map[string]float64 `json:"end_to_end"`
	Layer   map[string]float64 `json:"per_layer"`
	Samples map[string]summary `json:"samples"`
	Notes   []string           `json:"notes,omitempty"`
	// Errors keeps the first few failures verbatim.
	Errors []string `json:"errors,omitempty"`
}

func newResult(name string) *result {
	return &result{
		Workload: name,
		Named:    make(map[string]float64),
		Layer:    make(map[string]float64),
		Samples:  make(map[string]summary),
	}
}

// op counts one attempted operation; a non-nil err marks it failed.
func (r *result) op(err error) {
	r.Ops++
	if err != nil {
		r.fail(err)
	}
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// setup runs the workload's set-up cfg.setups times — the last one's
// products are the ones measured — and records the median as setup_s.
func (r *result) setup(cfg config, f func() error) error {
	var took []float64
	for i := 0; i < cfg.setups; i++ {
		// The previous round's corpus is garbage only because set-up is
		// being repeated; collect it outside the timed part.
		runtime.GC()
		start := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s set-up: %w", r.Workload, err)
		}
		took = append(took, time.Since(start).Seconds())
	}
	r.SetupS = median(took)
	return nil
}
