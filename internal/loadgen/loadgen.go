package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"mawilab/internal/parallel"
)

// Mix weighs the operation types a load client draws from. Weights are
// relative; zero disables an operation.
type Mix struct {
	// Upload posts a pcap drawn from the whole corpus (first upload of a
	// trace is a cache miss, later ones are duplicates).
	Upload int
	// Dup posts a pcap whose digest is already labeled — the guaranteed
	// cache-hit path.
	Dup int
	// Read fetches the CSV labeling for a warmed digest and verifies it
	// byte-for-byte against the local reference.
	Read int
	// Community fetches per-community summaries (with ?flows=) for a
	// warmed digest — the repeated-community-query path the server answers
	// from the flow table its store keeps resident beside the labels.
	Community int
	// Health probes /healthz.
	Health int
}

// DefaultMix is the smoke scenario: upload-heavy with a substantial
// duplicate share (>= 25% of writes), plus reads and probes.
var DefaultMix = Mix{Upload: 4, Dup: 2, Read: 2, Community: 1, Health: 1}

func (m Mix) total() int { return m.Upload + m.Dup + m.Read + m.Community + m.Health }

// ParseMix parses the scenario mix grammar: comma-separated `op=weight`
// pairs, e.g. "upload=4,dup=2,read=2,community=1,health=1". Omitted ops
// get weight 0; an empty string selects DefaultMix.
func ParseMix(s string) (Mix, error) {
	if strings.TrimSpace(s) == "" {
		return DefaultMix, nil
	}
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Mix{}, fmt.Errorf("loadgen: mix term %q is not op=weight", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("loadgen: mix weight in %q must be a non-negative integer", part)
		}
		switch strings.TrimSpace(key) {
		case "upload":
			m.Upload = w
		case "dup":
			m.Dup = w
		case "read":
			m.Read = w
		case "community":
			m.Community = w
		case "health":
			m.Health = w
		default:
			return Mix{}, fmt.Errorf("loadgen: unknown mix op %q (want upload|dup|read|community|health)", key)
		}
	}
	if m.total() <= 0 {
		return Mix{}, fmt.Errorf("loadgen: mix %q has zero total weight", s)
	}
	return m, nil
}

// String renders the mix in the grammar ParseMix accepts.
func (m Mix) String() string {
	return fmt.Sprintf("upload=%d,dup=%d,read=%d,community=%d,health=%d",
		m.Upload, m.Dup, m.Read, m.Community, m.Health)
}

// Config parameterizes one harness run.
type Config struct {
	// BaseURL is the daemon under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Corpus is the working set; nil builds the default corpus.
	Corpus *Corpus
	// Scenario names the run in the report (and keys the baseline).
	Scenario string
	// Clients is the closed-loop worker count (default 8).
	Clients int
	// OpsPerClient is each client's operation budget (default 20).
	OpsPerClient int
	// TargetRPS, when > 0, paces the run open-loop at this aggregate rate;
	// 0 runs closed-loop as fast as the daemon answers.
	TargetRPS float64
	// Mix weighs the operation types (zero value selects DefaultMix).
	Mix Mix
	// Seed makes the per-client operation streams reproducible.
	Seed int64
	// WarmAll pre-uploads the whole corpus before the measured window
	// (warm-start scenario); default warms only the first trace.
	WarmAll bool
	// MaxRetries bounds 429-retry attempts per upload (default 4;
	// negative disables retries).
	MaxRetries int
	// RetryCap caps the honored Retry-After sleep (default 500ms) so
	// saturation scenarios stay fast; the header's plausibility is
	// checked against its raw value regardless.
	RetryCap time.Duration
	// RequestTimeout bounds each HTTP request (default 30s).
	RequestTimeout time.Duration
	// QuiesceTimeout bounds the post-run wait for outstanding jobs
	// (default 60s).
	QuiesceTimeout time.Duration
	// CommunityFlows is the ?flows= fan-out per community query (default 2).
	CommunityFlows int
}

func (c *Config) setDefaults() {
	if c.Scenario == "" {
		c.Scenario = "default"
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.OpsPerClient <= 0 {
		c.OpsPerClient = 20
	}
	if c.Mix.total() <= 0 {
		c.Mix = DefaultMix
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 500 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.QuiesceTimeout <= 0 {
		c.QuiesceTimeout = 60 * time.Second
	}
	if c.CommunityFlows <= 0 {
		c.CommunityFlows = 2
	}
}

// rng is splitmix64: tiny, fast, and deterministic per client, so a run's
// operation streams are reproducible from (Seed, client index) without
// sharing state across goroutines.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Operation names: histogram keys, report keys, baseline gate keys.
const (
	OpUpload    = "upload"
	OpDup       = "dup"
	OpRead      = "read"
	OpCommunity = "community"
	OpHealth    = "health"
	OpTotal     = "total"
)

// opNames is the deterministic iteration order for per-op aggregates.
var opNames = []string{OpUpload, OpDup, OpRead, OpCommunity, OpHealth}

// clientState is one load client's private tallies — no locks on the hot
// path; the runner merges states in client-index order after the run.
type clientState struct {
	rng   rng
	hists map[string]*Hist

	ok2xx    int64 // decoded uploads answered 200/202
	rejected int64 // decoded uploads answered 429
	cached   int64 // upload responses with cached=true
	jobs     int64 // upload responses carrying a job id

	jobIDs     map[string]struct{}
	uploadedOK map[string]struct{} // digests with at least one 2xx upload
	rejectedDg map[string]struct{} // digests that saw a final 429
	errors     []string
}

func newClientState(seed int64, client int) *clientState {
	cs := &clientState{
		rng:        rng{state: uint64(seed)*0x100000001b3 + uint64(client)},
		hists:      make(map[string]*Hist, len(opNames)),
		jobIDs:     make(map[string]struct{}),
		uploadedOK: make(map[string]struct{}),
		rejectedDg: make(map[string]struct{}),
	}
	for _, op := range opNames {
		cs.hists[op] = &Hist{}
	}
	return cs
}

func (cs *clientState) errf(format string, args ...any) {
	cs.errors = append(cs.errors, fmt.Sprintf(format, args...))
}

// runner carries the per-run plumbing shared by all clients (read-only
// after setup, apart from the *http.Client which is safe for concurrent
// use).
type runner struct {
	cfg    Config
	corpus *Corpus
	http   *http.Client
	warmed []TraceRef // labeled before the measured window
}

// Run executes one load scenario against a running daemon and returns the
// measured, verified report. A non-nil error means the harness itself
// could not run; correctness and reconciliation failures are recorded in
// the report (check Report.Err()).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg.setDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: Config.BaseURL is required")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	corpus := cfg.Corpus
	if corpus == nil {
		var err error
		corpus, err = BuildCorpus(ctx, CorpusConfig{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
	}
	if len(corpus.Traces) == 0 {
		return nil, fmt.Errorf("loadgen: empty corpus")
	}
	r := &runner{cfg: cfg, corpus: corpus, http: &http.Client{Timeout: cfg.RequestTimeout}}

	if err := r.warm(ctx); err != nil {
		return nil, err
	}

	before, err := Scrape(ctx, r.http, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: pre-run scrape: %w", err)
	}

	states := make([]*clientState, cfg.Clients)
	start := time.Now()
	err = parallel.ForEach(ctx, cfg.Clients, cfg.Clients, func(ctx context.Context, i int) error {
		states[i] = newClientState(cfg.Seed, i)
		r.client(ctx, states[i])
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}

	merged := mergeStates(states)
	r.quiesce(ctx, merged)

	after, err := Scrape(ctx, r.http, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: post-run scrape: %w", err)
	}

	rep := r.buildReport(merged, elapsed, before, after)
	r.verify(ctx, merged, rep)
	return rep, nil
}

// warm pre-labels the warm set (corpus[0], or everything with WarmAll) so
// dup/read/community ops have a guaranteed labeled digest and the
// warm-start scenario starts from a seeded store. Runs before the "before"
// scrape, so its traffic stays out of the reconciliation window.
func (r *runner) warm(ctx context.Context) error {
	warm := r.corpus.Traces[:1]
	if r.cfg.WarmAll {
		warm = r.corpus.Traces
	}
	cs := newClientState(r.cfg.Seed, -1)
	for _, tr := range warm {
		for attempt := 0; ; attempt++ {
			status, _, err := r.uploadOnce(ctx, cs, tr, OpUpload)
			if err != nil {
				return fmt.Errorf("loadgen: warming %s: %v", tr.Name, err)
			}
			if status == http.StatusOK || status == http.StatusAccepted {
				break
			}
			if attempt > 50 {
				return fmt.Errorf("loadgen: warming %s: still rejected after %d attempts", tr.Name, attempt)
			}
			sleepCtx(ctx, r.cfg.RetryCap)
		}
		if err := r.awaitLabeled(ctx, tr); err != nil {
			return err
		}
		r.warmed = append(r.warmed, tr)
	}
	// Settle every warm job to its terminal state before the measured
	// window opens: the labeling becomes readable an instant before the
	// server's jobs_finished counter increments, and a warm increment
	// leaking into the window would break the reconciliation equations.
	r.quiesce(ctx, cs)
	if len(cs.errors) > 0 {
		return fmt.Errorf("loadgen: warm phase: %s", cs.errors[0])
	}
	return nil
}

// awaitLabeled polls until the digest's CSV is served and matches the
// reference.
func (r *runner) awaitLabeled(ctx context.Context, tr TraceRef) error {
	deadline := time.Now().Add(r.cfg.QuiesceTimeout)
	for {
		status, body, err := r.get(ctx, "/v1/labels/"+tr.Digest+".csv")
		if err != nil {
			return fmt.Errorf("loadgen: warming %s: %w", tr.Name, err)
		}
		if status == http.StatusOK {
			if !bytes.Equal(body, tr.CSV) {
				return fmt.Errorf("loadgen: warm divergence: served CSV for %s (%s) differs from local reference", tr.Name, tr.Digest)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: warming %s: labeling not ready before deadline (last status %d)", tr.Name, status)
		}
		sleepCtx(ctx, 10*time.Millisecond)
	}
}

// client is one closed-loop worker: OpsPerClient operations drawn from the
// mix, optionally paced to the open-loop target rate.
func (r *runner) client(ctx context.Context, cs *clientState) {
	var interval time.Duration
	if r.cfg.TargetRPS > 0 {
		interval = time.Duration(float64(r.cfg.Clients) / r.cfg.TargetRPS * float64(time.Second))
	}
	start := time.Now()
	for op := 0; op < r.cfg.OpsPerClient; op++ {
		if ctx.Err() != nil {
			return
		}
		if interval > 0 {
			next := start.Add(time.Duration(op) * interval)
			if d := time.Until(next); d > 0 {
				sleepCtx(ctx, d)
			}
		}
		r.oneOp(ctx, cs)
	}
}

// oneOp draws one operation from the mix and executes it.
func (r *runner) oneOp(ctx context.Context, cs *clientState) {
	m := r.cfg.Mix
	pick := cs.rng.intn(m.total())
	switch {
	case pick < m.Upload:
		r.opUpload(ctx, cs, r.corpus.Traces[cs.rng.intn(len(r.corpus.Traces))], OpUpload)
	case pick < m.Upload+m.Dup:
		r.opUpload(ctx, cs, r.warmed[cs.rng.intn(len(r.warmed))], OpDup)
	case pick < m.Upload+m.Dup+m.Read:
		r.opRead(ctx, cs)
	case pick < m.Upload+m.Dup+m.Read+m.Community:
		r.opCommunity(ctx, cs)
	default:
		r.opHealth(ctx, cs)
	}
}

// uploadOnce POSTs one pcap and tallies the outcome. It returns the HTTP
// status and, for a 429, the validated Retry-After seconds (0 when the
// header failed the plausibility check); err is a transport-level failure.
func (r *runner) uploadOnce(ctx context.Context, cs *clientState, tr TraceRef, op string) (int, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		r.cfg.BaseURL+"/v1/traces?name="+tr.Name, bytes.NewReader(tr.Pcap))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/vnd.tcpdump.pcap")
	t0 := time.Now()
	resp, err := r.http.Do(req)
	if err != nil {
		return 0, 0, err
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	cs.hists[op].Observe(time.Since(t0))
	if readErr != nil {
		return resp.StatusCode, 0, readErr
	}

	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		cs.ok2xx++
		cs.uploadedOK[tr.Digest] = struct{}{}
		var ur struct {
			Digest string `json:"digest"`
			Cached bool   `json:"cached"`
			JobID  string `json:"job_id"`
		}
		if err := json.Unmarshal(body, &ur); err != nil {
			cs.errf("%s %s: unparseable upload response: %v", op, tr.Name, err)
			break
		}
		if ur.Digest != tr.Digest {
			cs.errf("%s %s: server digest %s != local digest %s", op, tr.Name, ur.Digest, tr.Digest)
		}
		if ur.Cached {
			cs.cached++
		}
		if ur.JobID != "" {
			cs.jobs++
			cs.jobIDs[ur.JobID] = struct{}{}
		}
		if resp.StatusCode == http.StatusAccepted && ur.JobID == "" {
			cs.errf("%s %s: 202 without a job id", op, tr.Name)
		}
	case http.StatusTooManyRequests:
		cs.rejected++
		cs.rejectedDg[tr.Digest] = struct{}{}
		sec, err := plausibleRetryAfter(resp.Header.Get("Retry-After"))
		if err != nil {
			cs.errf("%s %s: 429 with implausible Retry-After: %v", op, tr.Name, err)
		}
		return resp.StatusCode, sec, nil
	default:
		cs.errf("%s %s: unexpected status %d: %s", op, tr.Name, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return resp.StatusCode, 0, nil
}

// plausibleRetryAfter validates the admission-control contract: every 429
// must carry a Retry-After that is a positive integer number of seconds,
// bounded by the server's own 300s clamp.
func plausibleRetryAfter(h string) (int, error) {
	if h == "" {
		return 0, fmt.Errorf("missing Retry-After header")
	}
	sec, err := strconv.Atoi(h)
	if err != nil {
		return 0, fmt.Errorf("non-integer Retry-After %q", h)
	}
	if sec < 1 || sec > 300 {
		return 0, fmt.Errorf("Retry-After %d outside [1, 300]", sec)
	}
	return sec, nil
}

// opUpload is uploadOnce plus the client-side backoff loop: a 429 is
// retried after (a capped version of) the server's Retry-After hint, up to
// MaxRetries times. Uploads that stay rejected are recorded; the
// verification sweep asserts they never reached the store.
func (r *runner) opUpload(ctx context.Context, cs *clientState, tr TraceRef, op string) {
	for attempt := 0; ; attempt++ {
		status, retryAfter, err := r.uploadOnce(ctx, cs, tr, op)
		if err != nil {
			if ctx.Err() == nil {
				cs.errf("%s %s: transport: %v", op, tr.Name, err)
			}
			return
		}
		if status != http.StatusTooManyRequests || attempt >= r.cfg.MaxRetries {
			return
		}
		sleep := time.Duration(retryAfter) * time.Second
		if sleep <= 0 || sleep > r.cfg.RetryCap {
			sleep = r.cfg.RetryCap
		}
		sleepCtx(ctx, sleep)
	}
}

// get fetches a path and returns status + body.
func (r *runner) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.BaseURL+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := r.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// opRead fetches a warmed digest's CSV and verifies it byte-for-byte —
// every read under load is a differential correctness check.
func (r *runner) opRead(ctx context.Context, cs *clientState) {
	tr := r.warmed[cs.rng.intn(len(r.warmed))]
	t0 := time.Now()
	status, body, err := r.get(ctx, "/v1/labels/"+tr.Digest+".csv")
	cs.hists[OpRead].Observe(time.Since(t0))
	if err != nil {
		if ctx.Err() == nil {
			cs.errf("read %s: transport: %v", tr.Name, err)
		}
		return
	}
	if status != http.StatusOK {
		cs.errf("read %s: status %d", tr.Name, status)
		return
	}
	if !bytes.Equal(body, tr.CSV) {
		cs.errf("DIVERGENCE read %s (%s): served CSV differs from local Pipeline.Run reference", tr.Name, tr.Digest)
	}
}

// opCommunity fetches community summaries with a flows fan-out for a
// warmed digest — the repeated-query path served from the store's resident
// flow table.
func (r *runner) opCommunity(ctx context.Context, cs *clientState) {
	tr := r.warmed[cs.rng.intn(len(r.warmed))]
	path := fmt.Sprintf("/v1/labels/%s/communities?flows=%d", tr.Digest, r.cfg.CommunityFlows)
	t0 := time.Now()
	status, body, err := r.get(ctx, path)
	cs.hists[OpCommunity].Observe(time.Since(t0))
	if err != nil {
		if ctx.Err() == nil {
			cs.errf("community %s: transport: %v", tr.Name, err)
		}
		return
	}
	if status != http.StatusOK {
		cs.errf("community %s: status %d", tr.Name, status)
		return
	}
	var any []json.RawMessage
	if err := json.Unmarshal(body, &any); err != nil {
		cs.errf("community %s: unparseable response: %v", tr.Name, err)
	}
}

// opHealth probes liveness.
func (r *runner) opHealth(ctx context.Context, cs *clientState) {
	t0 := time.Now()
	status, _, err := r.get(ctx, "/healthz")
	cs.hists[OpHealth].Observe(time.Since(t0))
	if err != nil {
		if ctx.Err() == nil {
			cs.errf("health: transport: %v", err)
		}
		return
	}
	if status != http.StatusOK {
		cs.errf("health: status %d", status)
	}
}

// mergeStates folds per-client states in client-index order, so the merged
// tallies are identical regardless of scheduling.
func mergeStates(states []*clientState) *clientState {
	m := newClientState(0, 0)
	for _, cs := range states {
		if cs == nil {
			continue
		}
		for _, op := range opNames {
			m.hists[op].Merge(cs.hists[op])
		}
		m.ok2xx += cs.ok2xx
		m.rejected += cs.rejected
		m.cached += cs.cached
		m.jobs += cs.jobs
		for id := range cs.jobIDs {
			m.jobIDs[id] = struct{}{}
		}
		for d := range cs.uploadedOK {
			m.uploadedOK[d] = struct{}{}
		}
		for d := range cs.rejectedDg {
			m.rejectedDg[d] = struct{}{}
		}
		m.errors = append(m.errors, cs.errors...)
	}
	return m
}

// quiesce polls every observed job to a terminal state, so the post-run
// scrape sees settled counters and the verification sweep reads a stable
// store. Failed jobs are recorded as errors.
func (r *runner) quiesce(ctx context.Context, cs *clientState) {
	deadline := time.Now().Add(r.cfg.QuiesceTimeout)
	for _, id := range sortedKeys(cs.jobIDs) {
		for {
			status, body, err := r.get(ctx, "/v1/jobs/"+id)
			if err != nil {
				cs.errf("quiesce %s: transport: %v", id, err)
				break
			}
			if status != http.StatusOK {
				cs.errf("quiesce %s: status %d", id, status)
				break
			}
			var j struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &j); err != nil {
				cs.errf("quiesce %s: unparseable job: %v", id, err)
				break
			}
			if j.State == "done" {
				break
			}
			if j.State == "failed" {
				cs.errf("quiesce %s: job failed: %s", id, j.Error)
				break
			}
			if time.Now().After(deadline) {
				cs.errf("quiesce %s: still %s at deadline", id, j.State)
				break
			}
			sleepCtx(ctx, 10*time.Millisecond)
		}
	}
}

// verify is the post-run differential sweep: every digest with a
// successful upload must serve exactly the reference CSV; digests that
// only ever saw 429s must not exist in the store (404).
func (r *runner) verify(ctx context.Context, cs *clientState, rep *Report) {
	warmed := make(map[string]struct{}, len(r.warmed))
	for _, tr := range r.warmed {
		warmed[tr.Digest] = struct{}{}
	}
	labeled := make(map[string]struct{}, len(cs.uploadedOK)+len(warmed))
	for d := range cs.uploadedOK {
		labeled[d] = struct{}{}
	}
	for d := range warmed {
		labeled[d] = struct{}{}
	}
	for _, digest := range sortedKeys(labeled) {
		tr, ok := r.corpus.ByDigest(digest)
		if !ok {
			rep.Errors = append(rep.Errors, fmt.Sprintf("verify %s: digest not in corpus", digest))
			continue
		}
		status, body, err := r.get(ctx, "/v1/labels/"+digest+".csv")
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("verify %s: transport: %v", tr.Name, err))
			continue
		}
		if status != http.StatusOK {
			rep.Errors = append(rep.Errors, fmt.Sprintf("verify %s: status %d", tr.Name, status))
			continue
		}
		if !bytes.Equal(body, tr.CSV) {
			rep.Divergences = append(rep.Divergences,
				fmt.Sprintf("%s (%s): served CSV differs from local Pipeline.Run reference", tr.Name, digest))
		}
		rep.Labeled = append(rep.Labeled, digest)
	}
	for _, digest := range sortedKeys(cs.rejectedDg) {
		if _, ok := labeled[digest]; ok {
			continue // rejected once but later admitted — store entry is legitimate
		}
		status, _, err := r.get(ctx, "/v1/labels/"+digest+".csv")
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("verify rejected %s: transport: %v", digest, err))
			continue
		}
		if status != http.StatusNotFound {
			rep.Errors = append(rep.Errors,
				fmt.Sprintf("verify rejected %s: want 404 for a never-admitted digest, got %d", digest, status))
		}
		rep.RejectedOnly = append(rep.RejectedOnly, digest)
	}
}

// buildReport assembles the per-op stats, reconciles the server counter
// deltas against the client-observed totals, and records the warm set.
func (r *runner) buildReport(cs *clientState, elapsed time.Duration, before, after Metrics) *Report {
	rep := &Report{
		Schema:          ReportSchema,
		Scenario:        r.cfg.Scenario,
		Mix:             r.cfg.Mix.String(),
		Clients:         r.cfg.Clients,
		OpsPerClient:    r.cfg.OpsPerClient,
		TargetRPS:       r.cfg.TargetRPS,
		DurationSeconds: elapsed.Seconds(),
		Ops:             make(map[string]OpStats, len(opNames)+1),
		Errors:          append([]string(nil), cs.errors...),
	}
	total := &Hist{}
	for _, op := range opNames {
		h := cs.hists[op]
		if h.Count() == 0 {
			continue
		}
		total.Merge(h)
		st := opStats(h, elapsed)
		// The 429 tally is shared between upload and dup (both go through
		// uploadOnce); attribute it once, to upload.
		if op == OpUpload {
			st.Rejected429 = cs.rejected
		}
		rep.Ops[op] = st
	}
	rep.Ops[OpTotal] = opStats(total, elapsed)
	tot := rep.Ops[OpTotal]
	tot.Rejected429 = cs.rejected
	rep.Ops[OpTotal] = tot

	for _, tr := range r.warmed {
		rep.Warmed = append(rep.Warmed, tr.Digest)
	}
	sort.Strings(rep.Warmed)

	rep.Server = ServerDeltas{
		Uploads:           after.Delta(before, "mawilabd_uploads_total"),
		CacheHits:         after.Delta(before, "mawilabd_cache_hits_total"),
		CacheMisses:       after.Delta(before, "mawilabd_cache_misses_total"),
		RejectedQueueFull: after.Delta(before, `mawilabd_uploads_rejected_total{reason="queue_full"}`),
		JobsDone:          after.Delta(before, `mawilabd_jobs_finished_total{state="done"}`),
		IndexCacheHits:    after.Delta(before, "mawilabd_index_cache_hits_total"),
		IndexCacheMisses:  after.Delta(before, "mawilabd_index_cache_misses_total"),
	}
	r.reconcile(cs, rep)
	return rep
}

// reconcile cross-checks the server's own counters against what the
// clients observed on the wire. Every equation is exact — the counters
// increment on the same branches the client sees — so any mismatch is a
// real accounting bug, not noise.
func (r *runner) reconcile(cs *clientState, rep *Report) {
	check := func(name string, server float64, client int64) {
		if server != float64(client) {
			rep.Reconciliation = append(rep.Reconciliation,
				fmt.Sprintf("%s: server delta %.0f != client-observed %d", name, server, client))
		}
	}
	check("uploads_total vs decoded uploads (2xx+429)", rep.Server.Uploads, cs.ok2xx+cs.rejected)
	check("cache_hits_total vs cached=true responses", rep.Server.CacheHits, cs.cached)
	check("cache_misses_total vs job-carrying responses", rep.Server.CacheMisses, cs.jobs)
	check("uploads_rejected_total{queue_full} vs 429 responses", rep.Server.RejectedQueueFull, cs.rejected)
	check("jobs_finished_total{done} vs unique observed jobs", rep.Server.JobsDone, int64(len(cs.jobIDs)))
}

// opStats renders one histogram as wire-format stats.
func opStats(h *Hist, elapsed time.Duration) OpStats {
	st := OpStats{
		Count: h.Count(),
		P50Ms: ms(h.Quantile(0.50)),
		P95Ms: ms(h.Quantile(0.95)),
		P99Ms: ms(h.Quantile(0.99)),
		MaxMs: ms(h.Max()),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		st.ThroughputOps = float64(h.Count()) / sec
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedKeys returns a set's keys in lexical order — deterministic
// iteration over merged per-client sets.
func sortedKeys(set map[string]struct{}) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sleepCtx sleeps d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
