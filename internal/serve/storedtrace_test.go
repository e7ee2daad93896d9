package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mawilab"
	"mawilab/internal/pcap"
	"mawilab/internal/trace"
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
// headers only — that decodes to the digest it is filed under, and a flows
// query that answers the same after the LRU evicted the digest's entry, flow
// table and all, and the next query reloaded it (from flows.bin;
// TestFlowsAnswerSurvivesEntryDamage covers the reload from trace.pcap).
func TestStoredTraceIsPayloadStripped(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxResident: 1, QueueDepth: 4})
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

	first := flowsOf(t, ts, digest)  // miss: loads the stored flow table
	cached := flowsOf(t, ts, digest) // hit
	flowsOf(t, ts, other)            // the one slot goes to the other digest
	rebuilt := flowsOf(t, ts, digest)
	if !bytes.Equal(first, cached) || !bytes.Equal(first, rebuilt) {
		t.Error("flows answer changed across an eviction")
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

// TestFullPayloadStoreKeepsServing: a store whose trace.pcap holds whole
// frames — the bytes of WritePcap, here the upload itself, as a daemon before
// the stripped encoding wrote them — reopens and answers the flows query
// exactly as a store written today, and a re-upload is still a cache hit. The
// entry here keeps today's flows.bin, so the query does not read that pcap;
// the older store that has none is TestFlowsAnswerSurvivesEntryDamage's
// "legacy store" case.
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

// TestFlowsAnswerSurvivesEntryDamage pins the flows query's two sources
// against each other. An intact entry answers from flows.bin alone — trace.pcap
// may be gone. An entry without flows.bin (a store written before the file
// existed), or with one that is truncated, bit-flipped, of an unknown version
// or out of order, answers byte-identically out of trace.pcap, counts the
// fallback by reason, and is left as it was found: the read path never writes.
func TestFlowsAnswerSurvivesEntryDamage(t *testing.T) {
	full := pcapBytes(t, goldenDay(t))
	const header, record = 9, 13
	reseal := func(data []byte) []byte {
		body := data[:len(data)-4]
		binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		return data
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, entry string, flows []byte) // flows: the intact flows.bin
		reason string                                         // the fallback counted, "" for none
	}{
		{"intact", func(*testing.T, string, []byte) {}, ""},
		{"no trace.pcap", func(t *testing.T, entry string, _ []byte) {
			removeFile(t, entry, "trace.pcap")
		}, ""},
		{"no flows.bin", func(t *testing.T, entry string, _ []byte) {
			removeFile(t, entry, "flows.bin")
		}, "missing"},
		{"legacy store", func(t *testing.T, entry string, _ []byte) {
			removeFile(t, entry, "flows.bin")
			writeFile(t, entry, "trace.pcap", full)
		}, "missing"},
		{"one byte flipped", func(t *testing.T, entry string, flows []byte) {
			flows[len(flows)/2] ^= 0x40
			writeFile(t, entry, "flows.bin", flows)
		}, "corrupt"},
		{"truncated", func(t *testing.T, entry string, flows []byte) {
			writeFile(t, entry, "flows.bin", flows[:len(flows)-record])
		}, "corrupt"},
		{"emptied", func(t *testing.T, entry string, _ []byte) {
			writeFile(t, entry, "flows.bin", nil)
		}, "corrupt"},
		{"unknown version", func(t *testing.T, entry string, flows []byte) {
			flows[4]++
			writeFile(t, entry, "flows.bin", reseal(flows))
		}, "corrupt"},
		{"out of order", func(t *testing.T, entry string, flows []byte) {
			first := slices.Clone(flows[header : header+record])
			copy(flows[header:], flows[header+record:header+2*record])
			copy(flows[header+record:], first)
			writeFile(t, entry, "flows.bin", reseal(flows))
		}, "corrupt"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, ts := newTestServer(t, Config{StoreDir: dir})
			digest := labeled(t, ts, full, "golden")
			want := flowsOf(t, ts, digest)
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			ts.Close()

			entry := filepath.Join(dir, digest)
			flows, err := os.ReadFile(filepath.Join(entry, "flows.bin"))
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, entry, flows)
			before := entryListing(t, entry)

			_, ts = newTestServer(t, Config{StoreDir: dir})
			if got := flowsOf(t, ts, digest); !bytes.Equal(got, want) {
				t.Errorf("answer differs from the intact entry's:\n got %s\nwant %s", got, want)
			}
			if got := flowsOf(t, ts, digest); !bytes.Equal(got, want) {
				t.Error("the cached answer differs")
			}
			for _, reason := range []string{"missing", "corrupt"} {
				want := ""
				if reason == tc.reason {
					want = "1" // the second query was a cache hit
				}
				if v, _ := metricValue(t, ts, `mawilabd_flow_table_fallbacks_total{reason="`+reason+`"}`); v != want {
					t.Errorf("flow_table_fallbacks{reason=%s} = %q, want %q", reason, v, want)
				}
			}
			if after := entryListing(t, entry); after != before {
				t.Errorf("the query changed the entry:\n was %s\n now %s", before, after)
			}
		})
	}
}

func removeFile(t *testing.T, dir, name string) {
	t.Helper()
	if err := os.Remove(filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
}

func writeFile(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// entryListing renders a store entry's file names and sizes.
func entryListing(t *testing.T, dir string) string {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range files {
		info, err := f.Info()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s:%d ", f.Name(), info.Size())
	}
	return b.String()
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
	s.engine.run = func(ctx context.Context, j *Job, ix *trace.Index) error {
		err := run(ctx, j, ix)
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
