package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mawilab"
	"mawilab/internal/core"
	"mawilab/internal/trace"
)

// goldenDay regenerates the exact trace behind testdata/pipeline_golden.json
// (the root end-to-end fixture): Archive(42), 30s, base rate 200, 2004-05-10.
func goldenDay(t testing.TB) *mawilab.Trace {
	t.Helper()
	arch := mawilab.NewArchive(42)
	arch.Duration = 30
	arch.BaseRate = 200
	return arch.Day(mawilab.Date(2004, 5, 10)).Trace
}

// goldenFixture loads the committed root fixture the served bytes must match.
func goldenFixture(t *testing.T) (traceSHA, csvSHA string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "pipeline_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		TraceSHA256 string `json:"trace_sha256"`
		CSVSHA256   string `json:"csv_sha256"`
	}
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	return g.TraceSHA256, g.CSVSHA256
}

func pcapBytes(t testing.TB, tr *mawilab.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mawilab.WritePcap(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestServer builds a Server over temp dirs and mounts it on httptest.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// upload POSTs a pcap and decodes the response envelope.
func upload(t *testing.T, ts *httptest.Server, pcap []byte, name string) (int, uploadResponse, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/traces?name="+name, "application/vnd.tcpdump.pcap", bytes.NewReader(pcap))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out uploadResponse
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("bad upload response %q: %v", body, err)
		}
	}
	return resp.StatusCode, out, resp.Header
}

// waitJob polls the jobs endpoint until the job terminates.
func waitJob(t *testing.T, ts *httptest.Server, id string) Job {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j Job
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if j.State == JobDone || j.State == JobFailed {
			return j
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Job{}
}

func get(t *testing.T, url string, header http.Header) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// metricValue scrapes /metrics and returns the value line for a metric name
// (with optional label selector), e.g. `mawilabd_cache_hits_total`.
func metricValue(t *testing.T, ts *httptest.Server, line string) (string, bool) {
	t.Helper()
	code, body, _ := get(t, ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, l := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(l, line+" ") {
			return strings.TrimPrefix(l, line+" "), true
		}
	}
	return "", false
}

// TestServedLabelingMatchesBatchGolden is the end-to-end determinism pin of
// the daemon: the golden-fixture day uploaded over HTTP must serve a CSV
// whose sha256 equals the committed batch fixture — at every worker count —
// and the decoded upload's digest must equal the batch trace digest (the
// pcap round trip is lossless).
func TestServedLabelingMatchesBatchGolden(t *testing.T) {
	traceSHA, csvSHA := goldenFixture(t)
	day := goldenDay(t)
	pcap := pcapBytes(t, day)

	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, ts := newTestServer(t, Config{PipelineWorkers: workers})
			code, up, _ := upload(t, ts, pcap, "golden-day")
			if code != http.StatusAccepted {
				t.Fatalf("upload = %d", code)
			}
			if up.Digest != traceSHA {
				t.Fatalf("uploaded digest %s, want golden %s (pcap round trip drifted)", up.Digest, traceSHA)
			}
			if j := waitJob(t, ts, up.JobID); j.State != JobDone {
				t.Fatalf("job failed: %s", j.Error)
			}
			code, body, hdr := get(t, ts.URL+"/v1/labels/"+up.Digest+".csv", nil)
			if code != http.StatusOK {
				t.Fatalf("labels = %d", code)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != csvSHA {
				t.Errorf("served CSV sha256 = %s, want golden %s", got, csvSHA)
			}
			if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
				t.Errorf("Content-Type = %q", ct)
			}
			if v := hdr.Get("Mawilab-Schema-Version"); v != "1" {
				t.Errorf("schema version header = %q", v)
			}
		})
	}
}

// TestContentNegotiationAndADMD pins the second wire format: Accept:
// application/xml (or the .admd suffix) serves bytes identical to the batch
// CLI's WriteADMD for the same trace and name.
func TestContentNegotiationAndADMD(t *testing.T) {
	day := goldenDay(t)
	l, err := mawilab.NewPipeline().Run(day)
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV, wantADMD bytes.Buffer
	if err := l.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteADMD(&wantADMD, "golden-day"); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{PipelineWorkers: 2})
	_, up, _ := upload(t, ts, pcapBytes(t, day), "golden-day")
	waitJob(t, ts, up.JobID)

	// Suffix form.
	_, admdBody, hdr := get(t, ts.URL+"/v1/labels/"+up.Digest+".admd", nil)
	if !bytes.Equal(admdBody, wantADMD.Bytes()) {
		t.Error("served .admd differs from batch WriteADMD bytes")
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/xml") {
		t.Errorf("admd Content-Type = %q", ct)
	}
	// Accept negotiation on the bare digest.
	_, negotiated, _ := get(t, ts.URL+"/v1/labels/"+up.Digest, http.Header{"Accept": {"application/xml"}})
	if !bytes.Equal(negotiated, wantADMD.Bytes()) {
		t.Error("Accept: application/xml did not serve admd")
	}
	_, csvBody, _ := get(t, ts.URL+"/v1/labels/"+up.Digest, nil)
	if !bytes.Equal(csvBody, wantCSV.Bytes()) {
		t.Error("default negotiation did not serve the batch CSV bytes")
	}
}

// TestRepeatUploadIsCacheHit pins the digest-keyed cache: the second upload
// of the same trace answers from the store — no second job — and the
// /metrics counters prove it.
func TestRepeatUploadIsCacheHit(t *testing.T) {
	day := goldenDay(t)
	pcap := pcapBytes(t, day)
	_, ts := newTestServer(t, Config{PipelineWorkers: 4})

	code, up, _ := upload(t, ts, pcap, "d")
	if code != http.StatusAccepted || up.Cached {
		t.Fatalf("first upload = %d cached=%v", code, up.Cached)
	}
	waitJob(t, ts, up.JobID)

	code, again, _ := upload(t, ts, pcap, "d")
	if code != http.StatusOK || !again.Cached {
		t.Fatalf("repeat upload = %d cached=%v, want 200 cached", code, again.Cached)
	}
	if again.JobID != "" {
		t.Errorf("cache hit scheduled job %s", again.JobID)
	}
	if v, ok := metricValue(t, ts, "mawilabd_cache_hits_total"); !ok || v != "1" {
		t.Errorf("cache_hits_total = %q, want 1", v)
	}
	if v, ok := metricValue(t, ts, "mawilabd_cache_misses_total"); !ok || v != "1" {
		t.Errorf("cache_misses_total = %q, want 1", v)
	}
	// Exactly one job ever ran.
	if v, ok := metricValue(t, ts, `mawilabd_jobs_finished_total{state="done"}`); !ok || v != "1" {
		t.Errorf(`jobs_finished_total{state="done"} = %q, want 1`, v)
	}
	// Per-stage latency histograms materialized for every stage.
	_, body, _ := get(t, ts.URL+"/metrics", nil)
	for _, stage := range []string{"ingest", "detect", "estimate", "label"} {
		if !strings.Contains(string(body), fmt.Sprintf("mawilabd_stage_seconds_count{stage=%q}", stage)) {
			t.Errorf("stage %s missing from /metrics", stage)
		}
	}
}

// gateDetector blocks Detect until released — the seam for holding a job
// in-flight while tests probe admission control and drain.
type gateDetector struct {
	started chan struct{}
	release chan struct{}
}

func (g *gateDetector) Name() string    { return "gate" }
func (g *gateDetector) NumConfigs() int { return 1 }
func (g *gateDetector) Detect(_ *trace.Index, _ int) ([]core.Alarm, error) {
	g.started <- struct{}{}
	<-g.release
	return nil, nil
}

// gatedConfig builds a server whose jobs block inside the detector until
// released. Average strategy tolerates the empty alarm set.
func gatedConfig(jobWorkers, queueDepth int) (Config, *gateDetector) {
	gate := &gateDetector{started: make(chan struct{}, 16), release: make(chan struct{})}
	cfg := Config{
		JobWorkers: jobWorkers,
		QueueDepth: queueDepth,
		NewPipeline: func() *mawilab.Pipeline {
			p := mawilab.NewPipeline()
			p.Detectors = []mawilab.Detector{gate}
			p.Strategy = mawilab.Average()
			return p
		},
	}
	return cfg, gate
}

// tinyTrace builds an n-packet pcap-representable trace; distinct n gives
// distinct digests.
func tinyTrace(n int) *mawilab.Trace {
	tr := &mawilab.Trace{Name: fmt.Sprintf("tiny-%d", n)}
	for i := 0; i < n; i++ {
		tr.Packets = append(tr.Packets, mawilab.Packet{
			TS: int64(i) * 1000, Src: mawilab.MakeIPv4(10, 0, 0, byte(i+1)),
			Dst: mawilab.MakeIPv4(10, 0, 1, 1), SrcPort: 1000, DstPort: 80,
			Len: 64, Proto: trace.TCP,
		})
	}
	return tr
}

// TestAdmissionControlOverflow pins the 429 path: with one worker occupied
// and a one-slot queue, a third distinct upload bounces with a Retry-After of
// whole seconds in [1, 300], leaves its digest in neither the store nor
// /v1/labels, and /metrics shows the rejection and the queue depth. Once the
// gate opens, the bounced trace posted again is labeled.
func TestAdmissionControlOverflow(t *testing.T) {
	cfg, gate := gatedConfig(1, 1)
	s, ts := newTestServer(t, cfg)

	code, a, _ := upload(t, ts, pcapBytes(t, tinyTrace(1)), "a")
	if code != http.StatusAccepted {
		t.Fatalf("first upload = %d", code)
	}
	<-gate.started // job a is in-flight, the worker is occupied

	code, b, _ := upload(t, ts, pcapBytes(t, tinyTrace(2)), "b")
	if code != http.StatusAccepted {
		t.Fatalf("second upload = %d", code)
	}
	if v, ok := metricValue(t, ts, "mawilabd_queue_depth"); !ok || v != "1" {
		t.Errorf("queue_depth = %q, want 1", v)
	}

	bounced := pcapBytes(t, tinyTrace(3))
	code, _, hdr := upload(t, ts, bounced, "c")
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow upload = %d, want 429", code)
	}
	if sec, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || sec < 1 || sec > 300 {
		t.Errorf("Retry-After = %q, want whole seconds in [1, 300]", hdr.Get("Retry-After"))
	}
	if v, ok := metricValue(t, ts, `mawilabd_uploads_rejected_total{reason="queue_full"}`); !ok || v != "1" {
		t.Errorf("rejected{queue_full} = %q, want 1", v)
	}
	tr, err := mawilab.ReadPcap(bytes.NewReader(bounced))
	if err != nil {
		t.Fatal(err)
	}
	digest := trace.NewIndex(tr).Digest()
	if s.store.Has(digest) {
		t.Error("the bounced trace reached the store")
	}
	if code, _, _ := get(t, ts.URL+"/v1/labels/"+digest+".csv", nil); code != http.StatusNotFound {
		t.Errorf("labels of the bounced trace = %d, want 404", code)
	}

	close(gate.release)
	for _, id := range []string{a.JobID, b.JobID} {
		if j := waitJob(t, ts, id); j.State != JobDone {
			t.Fatalf("job %s = %s (%s)", id, j.State, j.Error)
		}
	}
	code, c, _ := upload(t, ts, bounced, "c")
	if code != http.StatusAccepted {
		t.Fatalf("re-posted upload = %d, want 202", code)
	}
	if j := waitJob(t, ts, c.JobID); j.State != JobDone {
		t.Fatalf("re-posted job = %s (%s)", j.State, j.Error)
	}
	if code, _, _ := get(t, ts.URL+"/v1/labels/"+digest+".csv", nil); code != http.StatusOK {
		t.Errorf("labels of the re-posted trace = %d, want 200", code)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionRejectsOverlongSpan pins the span bound: a valid two-packet
// pcap whose timestamps lie two days apart is refused at admission — 400 and
// rejected{span} over HTTP, failed/ from the spool — before any job exists.
// Admitted, it would fail mid-job: two days at the finest standard width are
// more time bins than trace.NewTimeAxis allows.
func TestAdmissionRejectsOverlongSpan(t *testing.T) {
	spool := t.TempDir()
	for _, d := range []string{"done", "failed"} {
		if err := os.Mkdir(filepath.Join(spool, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	cfg, gate := gatedConfig(1, 4)
	close(gate.release)
	cfg.SpoolDir = spool
	s, ts := newTestServer(t, cfg)

	long := tinyTrace(2)
	long.Packets[1].TS = (48 * time.Hour).Microseconds()
	data := pcapBytes(t, long)
	code, up, _ := upload(t, ts, data, "two-days")
	if code != http.StatusBadRequest {
		t.Fatalf("upload spanning two days = %d, want 400", code)
	}
	if up.JobID != "" {
		t.Errorf("rejected upload carries job %s", up.JobID)
	}
	if v, ok := metricValue(t, ts, `mawilabd_uploads_rejected_total{reason="span"}`); !ok || v != "1" {
		t.Errorf("rejected{span} = %q, want 1", v)
	}

	if err := os.WriteFile(filepath.Join(spool, "two-days.pcap"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s.sweepSpool()
	if _, err := os.Stat(filepath.Join(spool, "failed", "two-days.pcap")); err != nil {
		t.Errorf("over-long spool file not moved to failed/: %v", err)
	}

	if _, active := s.engine.Active(trace.NewIndex(long).Digest()); active {
		t.Error("a job was created for the rejected trace")
	}
	if d := s.engine.Depth(); d != 0 {
		t.Errorf("queue depth = %d, want 0", d)
	}
	if v, _ := metricValue(t, ts, "mawilabd_cache_misses_total"); v != "0" {
		t.Errorf("cache_misses_total = %q, want 0: nothing may be scheduled", v)
	}

	// Exactly at the limit is still a trace.
	long.Packets[1].TS = maxTraceSpan.Microseconds()
	if code, _, _ := upload(t, ts, pcapBytes(t, long), "one-day"); code != http.StatusAccepted {
		t.Errorf("upload spanning exactly the limit = %d, want 202", code)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulDrain pins the SIGTERM semantics end to end (the signal
// handler calls exactly this Drain): mid-job drain finishes the in-flight
// job, rejects new uploads with 503, flips readiness, and the store holds
// only complete entries — never a partial write.
func TestGracefulDrain(t *testing.T) {
	cfg, gate := gatedConfig(1, 4)
	storeDir := t.TempDir()
	cfg.StoreDir = storeDir
	s, ts := newTestServer(t, cfg)

	code, up, _ := upload(t, ts, pcapBytes(t, tinyTrace(1)), "inflight")
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	<-gate.started // job is mid-flight

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for !s.engine.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// While draining: uploads 503, readiness 503, liveness still 200.
	if code, _, _ := upload(t, ts, pcapBytes(t, tinyTrace(2)), "late"); code != http.StatusServiceUnavailable {
		t.Errorf("upload while draining = %d, want 503", code)
	}
	if code, _, _ := get(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", code)
	}
	if code, _, _ := get(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200", code)
	}
	if v, ok := metricValue(t, ts, `mawilabd_uploads_rejected_total{reason="draining"}`); !ok || v != "1" {
		t.Errorf("rejected{draining} = %q, want 1", v)
	}

	close(gate.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if j := waitJob(t, ts, up.JobID); j.State != JobDone {
		t.Fatalf("in-flight job after drain = %s (%s), want done", j.State, j.Error)
	}
	// The drained job's entry is complete and no partial write exists.
	entries, err := os.ReadDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Errorf("partial store entry after drain: %s", e.Name())
		}
	}
	if code, _, _ := get(t, ts.URL+"/v1/labels/"+up.Digest+".csv", nil); code != http.StatusOK {
		t.Errorf("drained job's labels = %d, want 200", code)
	}
}

// TestLabelsLifecycle covers the not-yet/unknown answers: an active digest
// answers 202 with the job pointer, an unknown one 404.
func TestLabelsLifecycle(t *testing.T) {
	cfg, gate := gatedConfig(1, 4)
	s, ts := newTestServer(t, cfg)
	_, up, _ := upload(t, ts, pcapBytes(t, tinyTrace(1)), "a")
	<-gate.started

	code, body, _ := get(t, ts.URL+"/v1/labels/"+up.Digest+".csv", nil)
	if code != http.StatusAccepted {
		t.Errorf("labels while running = %d, want 202", code)
	}
	if !strings.Contains(string(body), up.JobID) {
		t.Errorf("202 body missing job pointer: %s", body)
	}
	if code, _, _ := get(t, ts.URL+"/v1/labels/ffff.csv", nil); code != http.StatusNotFound {
		t.Errorf("unknown digest = %d, want 404", code)
	}
	if code, _, _ := get(t, ts.URL+"/v1/jobs/j-999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", code)
	}

	close(gate.release)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCommunitiesEndpoint queries the labeled communities with and without
// the label filter, against the real golden-day labeling.
func TestCommunitiesEndpoint(t *testing.T) {
	day := goldenDay(t)
	_, ts := newTestServer(t, Config{PipelineWorkers: 4})
	_, up, _ := upload(t, ts, pcapBytes(t, day), "d")
	waitJob(t, ts, up.JobID)

	code, body, _ := get(t, ts.URL+"/v1/labels/"+up.Digest+"/communities", nil)
	if code != http.StatusOK {
		t.Fatalf("communities = %d", code)
	}
	var all []StoredCommunity
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no communities served")
	}
	_, body, _ = get(t, ts.URL+"/v1/labels/"+up.Digest+"/communities?label=anomalous", nil)
	var anomalous []StoredCommunity
	if err := json.Unmarshal(body, &anomalous); err != nil {
		t.Fatal(err)
	}
	if len(anomalous) == 0 || len(anomalous) >= len(all) {
		t.Errorf("anomalous filter = %d of %d", len(anomalous), len(all))
	}
	for _, c := range anomalous {
		if c.Label != "anomalous" {
			t.Errorf("filter leaked label %q", c.Label)
		}
	}

	// The list endpoint sees the entry.
	_, body, _ = get(t, ts.URL+"/v1/labels", nil)
	var list []EntryMeta
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Digest != up.Digest {
		t.Errorf("list = %+v", list)
	}
}

// TestSpoolWatcher drops a pcap into the spool directory and watches it get
// labeled and filed into done/.
func TestSpoolWatcher(t *testing.T) {
	spool := t.TempDir()
	cfg, gate := gatedConfig(1, 4)
	close(gate.release) // jobs run through immediately
	cfg.SpoolDir = spool
	cfg.SpoolInterval = 10 * time.Millisecond
	s, ts := newTestServer(t, cfg)

	if err := os.WriteFile(filepath.Join(spool, "day.pcap"), pcapBytes(t, tinyTrace(3)), 0o644); err != nil {
		t.Fatal(err)
	}
	// A non-pcap file must be ignored.
	os.WriteFile(filepath.Join(spool, "README.txt"), []byte("x"), 0o644)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan struct{})
	go func() { s.WatchSpool(ctx); close(watchDone) }()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(filepath.Join(spool, "done", "day.pcap")); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(spool, "done", "day.pcap")); err != nil {
		t.Fatal("spool file never moved to done/")
	}
	if _, err := os.Stat(filepath.Join(spool, "README.txt")); err != nil {
		t.Error("non-pcap file was touched")
	}
	// The labeling is served once the job completes.
	digest := trace.NewIndex(tinyTrace(3)).Digest()
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if code, _, _ := get(t, ts.URL+"/v1/labels/"+digest+".csv", nil); code == http.StatusOK {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, _, _ := get(t, ts.URL+"/v1/labels/"+digest+".csv", nil); code != http.StatusOK {
		t.Errorf("spooled labeling = %d, want 200", code)
	}
	cancel()
	<-watchDone
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// zeroLengthPcap is tinyTrace(1)'s pcap with the record's origlen and the
// packet's IPv4 total length set to 0.
func zeroLengthPcap(t testing.TB) []byte {
	data := pcapBytes(t, tinyTrace(1))
	binary.LittleEndian.PutUint32(data[24+12:], 0)
	binary.BigEndian.PutUint16(data[24+16+14+2:], 0)
	return data
}

// TestUploadBadPcap: an upload that is not a whole pcap is a 400 that makes
// no job and no entry — bytes that are no pcap at all, a record whose
// origlen and IPv4 total length are 0 (once decoded as a 65 522-byte
// packet and labeled), and a body that stops at a record boundary short of
// its Content-Length, whose records so far would decode as a shorter trace.
func TestUploadBadPcap(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, _, _ := upload(t, ts, []byte("not a pcap"), "junk")
	if code != http.StatusBadRequest {
		t.Errorf("bad pcap = %d, want 400", code)
	}

	if code, _, _ := upload(t, ts, zeroLengthPcap(t), "zero"); code != http.StatusBadRequest {
		t.Errorf("record with origlen 0 = %d, want 400", code)
	}

	// tinyTrace(30)'s pcap is the first 30 records of tinyTrace(64)'s.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/traces?name=short HTTP/1.1\r\nHost: mawilabd\r\nContent-Type: application/vnd.tcpdump.pcap\r\nContent-Length: %d\r\n\r\n",
		len(pcapBytes(t, tinyTrace(64))))
	if _, err := conn.Write(pcapBytes(t, tinyTrace(30))); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short upload = %d, want 400", resp.StatusCode)
	}
	if v, _ := metricValue(t, ts, "mawilabd_cache_misses_total"); v != "0" {
		t.Errorf("cache_misses_total = %q, want 0: a bad upload made a job", v)
	}
	if n := s.store.Len(); n != 0 {
		t.Errorf("store has %d entries, want 0", n)
	}
}

// TestConfigValidate covers the daemon config loader's typed errors,
// including the pipeline's worker-count sentinel passing through.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"no store dir", Config{}, ErrNoStoreDir},
		{"negative job workers", Config{StoreDir: "x", JobWorkers: -1}, ErrJobWorkers},
		{"negative queue", Config{StoreDir: "x", QueueDepth: -1}, ErrQueueDepth},
		{"negative resident", Config{StoreDir: "x", MaxResident: -1}, ErrMaxResident},
		{"negative pipeline workers", Config{StoreDir: "x", PipelineWorkers: -1}, mawilab.ErrWorkers},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); !errors.Is(err, tc.want) {
				t.Errorf("Validate() = %v, want %v", err, tc.want)
			}
			if _, err := New(tc.cfg); !errors.Is(err, tc.want) {
				t.Errorf("New() = %v, want %v", err, tc.want)
			}
		})
	}
	if err := (Config{StoreDir: "x"}).Validate(); err != nil {
		t.Errorf("minimal config invalid: %v", err)
	}
}
