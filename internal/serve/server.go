// Package serve is the mawilabd daemon substrate: a long-lived labeling
// service wrapping the batch pipeline. It watches a spool directory and
// accepts pcap uploads over HTTP, schedules day-labeling jobs across the
// pipeline's worker pool behind a bounded admission queue (429 +
// Retry-After on overflow, 503 while draining), caches labelings in a
// digest-keyed label store (a repeat upload of a known trace is a cache
// hit — no recompute), and serves the results alongside Prometheus-style
// metrics.
//
// The determinism contract extends to the wire: jobs run the unmodified
// Pipeline.RunContext and encode through the shared v1 wire schema
// (internal/serve/v1), so a served CSV is byte-identical to the batch CLI
// output for the same trace at every worker count.
//
// # Endpoints
//
//	POST /v1/traces               upload a pcap (?name= optional) -> 202 job, or 200 cached
//	GET  /v1/jobs/{id}            job status
//	GET  /v1/labels               list labeled traces
//	GET  /v1/labels/{digest}      labeling; .csv/.admd suffix or Accept negotiation
//	GET  /v1/labels/{digest}/communities   community summaries (?label= filter)
//	GET  /metrics                 Prometheus text exposition
//	GET  /healthz                 liveness (always 200 while serving)
//	GET  /readyz                  readiness (503 once draining)
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mawilab"
	"mawilab/internal/pcap"
	wirev1 "mawilab/internal/serve/v1"
	"mawilab/internal/trace"
)

// Config parameterizes a Server. The zero value of every field selects a
// sensible default; Validate rejects the invalid ones with typed errors.
type Config struct {
	// StoreDir roots the persistent label store. Required.
	StoreDir string
	// SpoolDir, when set, is polled for *.pcap files to label; handled
	// files move into SpoolDir/done (or SpoolDir/failed).
	SpoolDir string
	// SpoolInterval is the spool poll period (default 2s).
	SpoolInterval time.Duration
	// PipelineWorkers is each job's Pipeline.Workers (0 = sequential
	// reference path; every value yields identical bytes).
	PipelineWorkers int
	// JobWorkers is how many labeling jobs run concurrently (default 1).
	JobWorkers int
	// QueueDepth bounds the admission queue (default 8). A full queue
	// rejects uploads with 429 + Retry-After.
	QueueDepth int
	// JobTimeout bounds each job's context (default 10m; <= 0 keeps the
	// default — jobs must not run unbounded in a long-lived daemon).
	JobTimeout time.Duration
	// MaxResident bounds the label-store entries held in memory (default
	// 8): their encoded labels and, once a flows query asked for it, their
	// flow table. Evicted entries re-read from disk.
	MaxResident int
	// NewPipeline overrides the per-job pipeline constructor — the test
	// seam for injecting slow or failing detectors. nil selects
	// mawilab.NewPipeline with PipelineWorkers applied.
	NewPipeline func() *mawilab.Pipeline
}

// Typed configuration errors, matchable with errors.Is.
var (
	ErrNoStoreDir  = errors.New("serve: Config.StoreDir is required")
	ErrJobWorkers  = errors.New("serve: Config.JobWorkers must be >= 0")
	ErrQueueDepth  = errors.New("serve: Config.QueueDepth must be >= 0")
	ErrMaxResident = errors.New("serve: Config.MaxResident must be >= 0")
)

// Validate is the daemon's config loader check: its own fields, then the
// pipeline-level validation (mawilab.ErrWorkers passes through), so every
// invalid knob fails at startup with a typed error.
func (c Config) Validate() error {
	if c.StoreDir == "" {
		return ErrNoStoreDir
	}
	if c.JobWorkers < 0 {
		return fmt.Errorf("%w: got %d", ErrJobWorkers, c.JobWorkers)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("%w: got %d", ErrQueueDepth, c.QueueDepth)
	}
	if c.MaxResident < 0 {
		return fmt.Errorf("%w: got %d", ErrMaxResident, c.MaxResident)
	}
	p := &mawilab.Pipeline{Workers: c.PipelineWorkers}
	return p.Validate()
}

// Server is one running mawilabd instance: store + engine + metrics behind
// an http.Handler.
type Server struct {
	cfg    Config
	store  *Store
	engine *Engine
	mux    *http.ServeMux

	reg          *Registry
	uploads      *Counter
	rejected     *Family[Counter]
	cacheHits    *Counter
	cacheMisses  *Counter
	jobsFinished *Family[Counter]
	stageSeconds *Family[Histogram]
	jobSeconds   *Histogram
	spoolFiles   *Family[Counter]
}

// New builds a Server from a validated config and recovers the label store
// from disk. It does not listen; mount Handler on any http.Server and call
// Drain to stop.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.JobWorkers == 0 {
		cfg.JobWorkers = 1
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 8
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 10 * time.Minute
	}
	if cfg.SpoolInterval <= 0 {
		cfg.SpoolInterval = 2 * time.Second
	}
	store, err := OpenStore(cfg.StoreDir, cfg.MaxResident)
	if err != nil {
		return nil, err
	}

	s := &Server{cfg: cfg, store: store, reg: NewRegistry()}
	s.uploads = s.reg.Counter("mawilabd_uploads_total", "pcap uploads and spool files admitted for decoding")
	s.rejected = s.reg.CounterVec("mawilabd_uploads_rejected_total", "uploads rejected by admission control", "reason")
	s.cacheHits = s.reg.Counter("mawilabd_cache_hits_total", "uploads whose digest was already labeled (no recompute)")
	s.cacheMisses = s.reg.Counter("mawilabd_cache_misses_total", "uploads that scheduled a labeling job")
	s.jobsFinished = s.reg.CounterVec("mawilabd_jobs_finished_total", "labeling jobs by terminal state", "state")
	s.stageSeconds = s.reg.HistogramVec("mawilabd_stage_seconds", "per-stage pipeline latency (ingest/detect/estimate/label)", "stage", nil)
	s.jobSeconds = s.reg.Histogram("mawilabd_job_seconds", "whole-job wall-clock latency", JobBuckets)
	s.spoolFiles = s.reg.CounterVec("mawilabd_spool_files_total", "spool files handled by outcome", "outcome")
	store.DiskReads = s.reg.Counter("mawilabd_store_disk_reads_total", "label reads that missed the resident LRU")
	store.flowHits = s.reg.Counter("mawilabd_index_cache_hits_total", "flow queries served from a resident entry's flow table")
	store.flowMisses = s.reg.Counter("mawilabd_index_cache_misses_total", "flow queries that had to load a flow table")
	store.flowFallbacks = s.reg.CounterVec("mawilabd_flow_table_fallbacks_total", "flow-table loads that decoded trace.pcap because flows.bin was missing or corrupt", "reason")

	s.engine = NewEngine(cfg.JobWorkers, cfg.QueueDepth, cfg.JobTimeout, s.runJob)
	s.engine.JobSeconds = s.jobSeconds
	s.engine.Finished = func(state JobState) { s.jobsFinished.With(string(state)).Inc() }
	s.engine.Stored = store.Has
	s.reg.GaugeFunc("mawilabd_queue_depth", "labeling jobs admitted and waiting to run", func() int64 { return int64(s.engine.Depth()) })
	s.reg.GaugeFunc("mawilabd_jobs_inflight", "labeling jobs currently running", func() int64 { return s.engine.Inflight() })
	s.reg.GaugeFunc("mawilabd_store_entries", "completed labelings in the store", func() int64 { return int64(s.store.Len()) })
	s.reg.GaugeFunc("mawilabd_store_resident", "store entries resident in memory: their labels, and their flow table once queried", func() int64 { return int64(s.store.Resident()) })

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/traces", s.handleUpload)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/labels", s.handleList)
	mux.HandleFunc("GET /v1/labels/{ref}", s.handleLabels)
	mux.HandleFunc("GET /v1/labels/{digest}/communities", s.handleCommunities)
	mux.Handle("GET /metrics", s.reg)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.engine.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	s.mux = mux
	return s, nil
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain begins graceful shutdown and blocks until every accepted job has
// finished (or ctx expires): readiness flips to 503, new uploads are
// rejected with 503, in-flight and queued jobs run to completion, and the
// store never holds a partial entry — writes are tmp+rename all the way.
func (s *Server) Drain(ctx context.Context) error { return s.engine.Drain(ctx) }

// newPipeline builds one job's pipeline: the configured constructor (or the
// paper's defaults) with the stage-latency observer installed.
func (s *Server) newPipeline() *mawilab.Pipeline {
	var p *mawilab.Pipeline
	if s.cfg.NewPipeline != nil {
		p = s.cfg.NewPipeline()
	} else {
		p = mawilab.NewPipeline()
		p.Workers = s.cfg.PipelineWorkers
	}
	p.Observe = func(stage mawilab.Stage, seconds float64) {
		s.stageSeconds.With(string(stage)).Observe(seconds)
	}
	return p
}

// runJob is the engine's work function: run the unmodified batch pipeline
// over the upload's columnar index, encode both wire formats, and persist
// the entry atomically. The index came straight off the fused decode path
// (no []Packet was ever materialized); its pooled buffers are released once
// the entry is persisted, so steady-state serving recycles the same columns
// upload after upload.
func (s *Server) runJob(ctx context.Context, j *Job, ix *trace.Index) error {
	defer ix.Release()
	p := s.newPipeline()
	l, err := p.RunIndex(ctx, ix)
	if err != nil {
		return err
	}
	var csv, admd bytes.Buffer
	if err := l.WriteCSV(&csv); err != nil {
		return err
	}
	if err := l.WriteADMD(&admd, j.Trace); err != nil {
		return err
	}
	sum := sha256.Sum256(csv.Bytes())
	meta := &EntryMeta{
		Digest:    j.Digest,
		Trace:     j.Trace,
		Packets:   ix.Len(),
		Alarms:    len(l.Alarms),
		Anomalous: len(l.Anomalies()),
		CSVSHA256: hex.EncodeToString(sum[:]),
		LabeledAt: time.Now().UTC(),
		Workers:   p.Workers,
	}
	for _, rep := range l.Reports {
		src, sport, dst, dport := wirev1.BestRule(rep)
		meta.Communities = append(meta.Communities, StoredCommunity{
			Community: rep.Community,
			Label:     rep.Label.String(),
			SrcIP:     src,
			SrcPort:   sport,
			DstIP:     dst,
			DstPort:   dport,
			Heuristic: rep.Class.String(),
			Category:  rep.Category.String(),
			Packets:   rep.Packets,
			Flows:     rep.Flows,
			Score:     rep.Decision.Score,
		})
	}
	// Persist beside the labels what flow-level queries read — the flow table
	// in its file form — and the trace it came from, stripped to its headers:
	// the digest survives that round trip, so an entry whose flows.bin is lost
	// or damaged still rebuilds the table without the original upload.
	return s.store.PutEntry(Entry{
		Meta:  meta,
		CSV:   csv.Bytes(),
		ADMD:  admd.Bytes(),
		Pcap:  pcap.EncodeIndex(ix),
		Flows: trace.EncodeFlowTable(&ix.FlowTable),
	})
}

// uploadResponse is the POST /v1/traces wire representation.
type uploadResponse struct {
	Digest string `json:"digest"`
	Cached bool   `json:"cached"`
	Labels string `json:"labels,omitempty"`
	JobID  string `json:"job_id,omitempty"`
	JobURL string `json:"job_url,omitempty"`
}

// maxTraceSpan bounds the time a trace may cover, time zero to last packet.
// The detectors' time axis (trace.NewTimeAxis) bounds their bins on its own
// and fits 24 h at every standard width; admission keeps this check so that
// a longer trace fails at upload with a 400, not mid-job. A MAWI sample
// point is 15 minutes.
const maxTraceSpan = 24 * time.Hour

// errTraceSpan rejects a trace that decodes but covers more than maxTraceSpan.
var errTraceSpan = errors.New("serve: trace span exceeds the admission limit")

// admit runs the shared admission path for uploads and spool files: fused
// decode straight into a pooled columnar index, span check, digest, enqueue —
// which is also the cache check, made together with the active-job lookup.
// The response captures the outcome; err is an admission rejection
// (ErrQueueFull/ErrDraining), an over-long trace (errTraceSpan) or a decode
// failure. Whenever the engine does not adopt the index — cache hit,
// rejection, duplicate digest — its pooled buffers are released here, so
// every admission outcome recycles exactly once.
func (s *Server) admit(r io.Reader, name string) (*uploadResponse, error) {
	start := time.Now()
	ix, err := mawilab.DecodePcap(r)
	if err != nil {
		return nil, fmt.Errorf("decoding pcap: %w", err)
	}
	if n := ix.Len(); n > 0 && ix.TS[n-1] > maxTraceSpan.Microseconds() {
		err := fmt.Errorf("%w: %.0f s, limit %v", errTraceSpan, ix.Duration(), maxTraceSpan)
		ix.Release()
		return nil, err
	}
	s.stageSeconds.With(string(mawilab.StageIngest)).Observe(time.Since(start).Seconds())
	s.uploads.Inc()
	digest := ix.Digest()

	j, outcome, err := s.engine.Enqueue(digest, name, ix.Len(), ix)
	if outcome != Adopted {
		ix.Release()
	}
	if err != nil {
		return nil, err
	}
	if outcome == Cached {
		s.cacheHits.Inc()
		return &uploadResponse{Digest: digest, Cached: true, Labels: "/v1/labels/" + digest + ".csv"}, nil
	}
	s.cacheMisses.Inc()
	return &uploadResponse{Digest: digest, JobID: j.ID, JobURL: "/v1/jobs/" + j.ID}, nil
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "upload"
	}
	resp, err := s.admit(r.Body, name)
	switch {
	case errors.Is(err, ErrQueueFull):
		s.rejected.With("queue_full").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrDraining):
		s.rejected.With("draining").Inc()
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		if errors.Is(err, errTraceSpan) {
			s.rejected.With("span").Inc()
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	status := http.StatusAccepted
	if resp.Cached {
		status = http.StatusOK
	}
	writeJSON(w, status, resp)
}

// retryAfter estimates seconds until a queue slot frees: queued work ahead
// times the mean job latency, clamped to [1, 300].
func (s *Server) retryAfter() int {
	mean := s.jobSeconds.Mean()
	if mean <= 0 {
		mean = 1
	}
	est := int(math.Ceil(mean * float64(s.engine.Depth()+1)))
	if est < 1 {
		est = 1
	}
	if est > 300 {
		est = 300
	}
	return est
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.engine.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, &j)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.store.List())
}

// handleLabels serves GET /v1/labels/{digest}[.csv|.admd]. A bare digest
// negotiates on the Accept header: application/xml or the admd media type
// select ADMD, anything else (including text/csv and */*) selects CSV —
// both byte-identical to the CLI's output for the same trace.
func (s *Server) handleLabels(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("ref")
	digest, format := ref, ""
	for suffix, f := range map[string]string{".csv": "csv", ".admd": "admd"} {
		if strings.HasSuffix(ref, suffix) {
			digest, format = strings.TrimSuffix(ref, suffix), f
		}
	}
	if format == "" {
		format = "csv"
		accept := r.Header.Get("Accept")
		if strings.Contains(accept, "application/xml") || strings.Contains(accept, "text/xml") {
			format = "admd"
		}
	}
	data, known, err := s.store.Labels(digest, format)
	if !known {
		s.labelsNotFound(w, digest)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	ct := wirev1.ContentTypeCSV
	if format == "admd" {
		ct = wirev1.ContentTypeADMD
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("Mawilab-Schema-Version", strconv.Itoa(wirev1.Version))
	w.Write(data)
}

// labelsNotFound distinguishes "still computing" (409-adjacent: point at
// the job) from "never seen" (404).
func (s *Server) labelsNotFound(w http.ResponseWriter, digest string) {
	if j, ok := s.engine.Active(digest); ok {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeJSON(w, http.StatusAccepted, map[string]string{
			"status": string(j.State), "job_id": j.ID, "job_url": "/v1/jobs/" + j.ID,
		})
		return
	}
	http.Error(w, "unknown digest", http.StatusNotFound)
}

func (s *Server) handleCommunities(w http.ResponseWriter, r *http.Request) {
	meta, ok := s.store.Meta(r.PathValue("digest"))
	if !ok {
		s.labelsNotFound(w, r.PathValue("digest"))
		return
	}
	communities := meta.Communities
	if want := r.URL.Query().Get("label"); want != "" {
		filtered := make([]StoredCommunity, 0, len(communities))
		for _, c := range communities {
			if c.Label == want {
				filtered = append(filtered, c)
			}
		}
		communities = filtered
	}
	if flowsParam := r.URL.Query().Get("flows"); flowsParam != "" {
		limit, err := strconv.Atoi(flowsParam)
		if err != nil || limit < 1 {
			http.Error(w, "flows must be a positive integer", http.StatusBadRequest)
			return
		}
		s.serveCommunityFlows(w, meta.Digest, communities, limit)
		return
	}
	writeJSON(w, http.StatusOK, communities)
}

// communityWithFlows is one community summary augmented with the flows its
// best-rule filter matches — the ?flows=N response shape.
type communityWithFlows struct {
	StoredCommunity
	// MatchedFlows holds up to N matching flows in ascending flow-table
	// order, rendered "src:sport>dst:dport/proto" — deterministic for a
	// given trace regardless of the cache state.
	MatchedFlows []string `json:"matched_flows"`
}

// serveCommunityFlows resolves each community's best-rule filter against
// the trace's flow table, resident in the store once loaded.
func (s *Server) serveCommunityFlows(w http.ResponseWriter, digest string, communities []StoredCommunity, limit int) {
	flows, _, err := s.store.Flows(digest)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := make([]communityWithFlows, 0, len(communities))
	for _, c := range communities {
		out = append(out, communityWithFlows{
			StoredCommunity: c,
			MatchedFlows:    matchedFlows(flows, communityFilter(c), limit),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// communityFilter rebuilds the trace filter from a stored best-rule tuple.
// Wildcards ("*") and fields from entries predating the tuple ("") leave
// the dimension unconstrained; a malformed field degrades to unconstrained
// rather than failing the query.
func communityFilter(c StoredCommunity) trace.Filter {
	f := trace.NewFilter()
	if ip, err := trace.ParseIPv4(c.SrcIP); err == nil {
		f = f.WithSrc(ip)
	}
	if ip, err := trace.ParseIPv4(c.DstIP); err == nil {
		f = f.WithDst(ip)
	}
	if p, err := strconv.ParseUint(c.SrcPort, 10, 16); err == nil {
		f = f.WithSrcPort(uint16(p))
	}
	if p, err := strconv.ParseUint(c.DstPort, 10, 16); err == nil {
		f = f.WithDstPort(uint16(p))
	}
	return f
}

// matchedFlows returns up to limit flows matching the filter, in ascending
// flow-table order, out of the table's candidate flows for it (the whole
// table when no constrained field is posted). The answer is sized by the
// candidates, never by limit alone: limit comes from the query string.
func matchedFlows(flows *trace.FlowTable, f trace.Filter, limit int) []string {
	cands := flows.CandidateFlows(f)
	out := make([]string, 0, min(limit, cands.Len()))
	for i := 0; i < cands.Len() && len(out) < limit; i++ {
		if k := flows.Flow(cands.At(i)); f.MatchFlow(k) {
			out = append(out, flowString(k))
		}
	}
	return out
}

// flowString renders one flow key for the wire.
func flowString(k trace.FlowKey) string {
	return fmt.Sprintf("%s:%d>%s:%d/%s", k.Src, k.SrcPort, k.Dst, k.DstPort, k.Proto)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WatchSpool polls the spool directory until ctx is done, admitting every
// *.pcap it finds: labeled (or cache-hit) files move to SpoolDir/done,
// undecodable ones to SpoolDir/failed, and files bounced by a full queue
// stay put for the next tick. It returns when ctx is cancelled or when the
// engine starts draining.
func (s *Server) WatchSpool(ctx context.Context) error {
	if s.cfg.SpoolDir == "" {
		return nil
	}
	for _, d := range []string{s.cfg.SpoolDir, filepath.Join(s.cfg.SpoolDir, "done"), filepath.Join(s.cfg.SpoolDir, "failed")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return fmt.Errorf("serve: spool: %w", err)
		}
	}
	ticker := time.NewTicker(s.cfg.SpoolInterval)
	defer ticker.Stop()
	for {
		s.sweepSpool()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			if s.engine.Draining() {
				return nil
			}
		}
	}
}

// sweepSpool admits every pcap currently in the spool directory once.
func (s *Server) sweepSpool() {
	entries, err := os.ReadDir(s.cfg.SpoolDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".pcap") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		path := filepath.Join(s.cfg.SpoolDir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		resp, err := s.admit(f, strings.TrimSuffix(e.Name(), ".pcap"))
		f.Close()
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
			s.spoolFiles.With("deferred").Inc()
			return // try again next tick; later files would bounce too
		case err != nil:
			s.spoolFiles.With("failed").Inc()
			os.Rename(path, filepath.Join(s.cfg.SpoolDir, "failed", e.Name()))
		default:
			outcome := "enqueued"
			if resp.Cached {
				outcome = "cache_hit"
			}
			s.spoolFiles.With(outcome).Inc()
			os.Rename(path, filepath.Join(s.cfg.SpoolDir, "done", e.Name()))
		}
	}
}
