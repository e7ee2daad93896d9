package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"mawilab"
	"mawilab/internal/pcap"
)

// labeled uploads a pcap and waits for its job, returning the digest.
func labeled(t *testing.T, ts *httptest.Server, data []byte, name string) string {
	t.Helper()
	code, out, _ := upload(t, ts, data, name)
	if code != http.StatusAccepted {
		t.Fatalf("upload %s = %d", name, code)
	}
	if j := waitJob(t, ts, out.JobID); j.State != JobDone {
		t.Fatalf("job %s = %s (%s)", name, j.State, j.Error)
	}
	return out.Digest
}

// flowsOf fetches the ?flows=5 answer for a digest.
func flowsOf(t *testing.T, ts *httptest.Server, digest string) []byte {
	t.Helper()
	code, body, _ := get(t, ts.URL+"/v1/labels/"+digest+"/communities?flows=5", nil)
	if code != http.StatusOK {
		t.Fatalf("flows query %s = %d: %s", digest, code, body)
	}
	return body
}

// TestStoredTraceIsPayloadStripped pins what an upload leaves in the store:
// of a full-payload pcap, a trace.pcap of exactly pcap.EncodedLen bytes —
// headers only — that decodes to the digest it is filed under, and from which
// the flows query rebuilds the same answer after the index cache dropped it.
func TestStoredTraceIsPayloadStripped(t *testing.T) {
	s, ts := newTestServer(t, Config{IndexCacheSize: 1, QueueDepth: 4})
	full := pcapBytes(t, goldenDay(t))
	digest := labeled(t, ts, full, "golden")
	other := labeled(t, ts, pcapBytes(t, tinyTrace(7)), "tiny")

	ix, err := mawilab.DecodePcap(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Release()
	stored, err := os.ReadFile(filepath.Join(s.cfg.StoreDir, digest, "trace.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	if want := pcap.EncodedLen(ix); len(stored) != want {
		t.Errorf("stored trace.pcap is %d bytes, want EncodedLen = %d", len(stored), want)
	}
	if len(stored) > 24+70*ix.Len() || len(stored)*4 > len(full) {
		t.Errorf("stored %d bytes of a %d-byte, %d-packet upload: not stripped", len(stored), len(full), ix.Len())
	}
	back, err := mawilab.DecodePcap(bytes.NewReader(stored))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Release()
	if got := back.Digest(); got != digest || got != ix.Digest() {
		t.Errorf("stored trace decodes to %s, filed under %s, uploaded %s", got, digest, ix.Digest())
	}

	first := flowsOf(t, ts, digest)  // miss: decodes the stored file
	cached := flowsOf(t, ts, digest) // hit
	flowsOf(t, ts, other)            // the one slot goes to the other digest
	rebuilt := flowsOf(t, ts, digest)
	if !bytes.Equal(first, cached) || !bytes.Equal(first, rebuilt) {
		t.Error("flows answer changed across an index-cache eviction")
	}
	var communities []communityWithFlows
	if err := json.Unmarshal(first, &communities); err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, c := range communities {
		matched += len(c.MatchedFlows)
	}
	if matched == 0 {
		t.Error("no community matched any flow")
	}
	if v, ok := metricValue(t, ts, "mawilabd_index_cache_misses_total"); !ok || v != "3" {
		t.Errorf("index_cache_misses = %q, want 3 (golden, tiny, golden again)", v)
	}
}

// TestFullPayloadStoreKeepsServing: a store written by a daemon that kept
// whole frames — its trace.pcap was the bytes of WritePcap, here the upload
// itself — reopens and answers the flows query exactly as a store written
// today, and a re-upload is still a cache hit.
func TestFullPayloadStoreKeepsServing(t *testing.T) {
	dir := t.TempDir()
	full := pcapBytes(t, goldenDay(t))
	s, ts := newTestServer(t, Config{StoreDir: dir})
	digest := labeled(t, ts, full, "golden")
	want := flowsOf(t, ts, digest)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	path := filepath.Join(dir, digest, "trace.pcap")
	if fi, err := os.Stat(path); err != nil || fi.Size() >= int64(len(full)) {
		t.Fatalf("today's stored trace: %v, %d bytes of a %d-byte upload", err, fi.Size(), len(full))
	}
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts = newTestServer(t, Config{StoreDir: dir})
	if got := flowsOf(t, ts, digest); !bytes.Equal(got, want) {
		t.Errorf("full-payload trace.pcap answers differently:\n got %s\nwant %s", got, want)
	}
	if code, out, _ := upload(t, ts, full, "golden"); code != http.StatusOK || !out.Cached {
		t.Errorf("re-upload against the reopened store = %d cached=%v, want 200 cached", code, out.Cached)
	}
}

// TestDuplicateUploadWhileJobPersists drives the daemon through the window
// the has-then-enqueue admission raced in: the job is parked after Store.Put
// returned and before the engine finishes it. An identical upload arriving
// there joins the job; one arriving after the finish is the cache hit. One
// job, one hit — never a second labeling.
func TestDuplicateUploadWhileJobPersists(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	put, finish := make(chan struct{}), make(chan struct{})
	// The seam: wrap the engine's work function before the first upload
	// (the queue send orders this write before any worker's read).
	run := s.engine.run
	s.engine.run = func(ctx context.Context, j *Job, payload any) error {
		err := run(ctx, j, payload)
		close(put)
		<-finish
		return err
	}
	data := pcapBytes(t, tinyTrace(9))

	code, first, _ := upload(t, ts, data, "t")
	if code != http.StatusAccepted {
		t.Fatalf("first upload = %d", code)
	}
	<-put
	if _, active := s.engine.Active(first.Digest); !active || !s.store.Has(first.Digest) {
		t.Fatal("parked job should be both stored and still active")
	}
	code, during, _ := upload(t, ts, data, "t")
	if code != http.StatusAccepted || during.Cached || during.JobID != first.JobID {
		t.Fatalf("upload while the job persists = %d cached=%v job %q, want 202 joining %s", code, during.Cached, during.JobID, first.JobID)
	}
	close(finish)
	if j := waitJob(t, ts, first.JobID); j.State != JobDone {
		t.Fatalf("job = %s (%s)", j.State, j.Error)
	}
	code, after, _ := upload(t, ts, data, "t")
	if code != http.StatusOK || !after.Cached || after.JobID != "" {
		t.Fatalf("upload after the finish = %d cached=%v job %q, want 200 cached", code, after.Cached, after.JobID)
	}

	for metric, want := range map[string]string{
		"mawilabd_cache_hits_total":                  "1",
		"mawilabd_cache_misses_total":                "2",
		"mawilabd_uploads_total":                     "3",
		`mawilabd_jobs_finished_total{state="done"}`: "1",
	} {
		if v, ok := metricValue(t, ts, metric); !ok || v != want {
			t.Errorf("%s = %q, want %s", metric, v, want)
		}
	}
	if _, ok := s.engine.Job("j-2"); ok {
		t.Error("a second job was created")
	}
	if s.store.Len() != 1 {
		t.Errorf("store has %d entries, want 1", s.store.Len())
	}
}
