package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mawilab"
	"mawilab/internal/trace"
)

// referenceCSV labels the pcap-round-tripped trace locally — the exact
// bytes the daemon must serve for the same upload.
func referenceCSV(t *testing.T, pcap []byte) []byte {
	t.Helper()
	tr, err := mawilab.ReadPcap(bytes.NewReader(pcap))
	if err != nil {
		t.Fatal(err)
	}
	l, err := mawilab.NewPipeline().Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConcurrentDuplicateStorm pins the dedup contract under racing
// writers: K goroutines upload the identical trace simultaneously, the
// pipeline runs exactly once, every client gets a correct response, and
// the store holds one clean entry with no tmp debris. Run under -race.
func TestConcurrentDuplicateStorm(t *testing.T) {
	const K = 8
	var runs atomic.Int32
	cfg := Config{
		JobWorkers: 2,
		QueueDepth: K,
		NewPipeline: func() *mawilab.Pipeline {
			runs.Add(1)
			return mawilab.NewPipeline()
		},
	}
	s, ts := newTestServer(t, cfg)
	pcap := pcapBytes(t, tinyTrace(16))
	want := referenceCSV(t, pcap)

	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		mu    sync.Mutex
		codes []int
		resps []uploadResponse
	)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/traces?name=storm", "application/vnd.tcpdump.pcap", bytes.NewReader(pcap))
			if err != nil {
				t.Error(err)
				return
			}
			var out uploadResponse
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				t.Errorf("decoding upload response: %v", err)
				return
			}
			mu.Lock()
			codes = append(codes, resp.StatusCode)
			resps = append(resps, out)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()

	if len(resps) != K {
		t.Fatalf("got %d responses, want %d", len(resps), K)
	}
	jobs := map[string]bool{}
	for i, out := range resps {
		if codes[i] != http.StatusOK && codes[i] != http.StatusAccepted {
			t.Fatalf("upload %d: status %d", i, codes[i])
		}
		if out.Digest != resps[0].Digest {
			t.Fatalf("upload %d: digest %s != %s", i, out.Digest, resps[0].Digest)
		}
		if out.JobID != "" {
			jobs[out.JobID] = true
		}
	}
	if len(jobs) > 1 {
		t.Fatalf("storm created %d distinct jobs, want at most 1: %v", len(jobs), jobs)
	}
	for id := range jobs {
		if j := waitJob(t, ts, id); j.State != JobDone {
			t.Fatalf("storm job %s = %s (%s)", id, j.State, j.Error)
		}
	}

	if got := runs.Load(); got != 1 {
		t.Errorf("pipeline ran %d times, want exactly 1", got)
	}
	if v, ok := metricValue(t, ts, `mawilabd_jobs_finished_total{state="done"}`); !ok || v != "1" {
		t.Errorf("jobs_finished{done} = %q, want 1", v)
	}
	if v, ok := metricValue(t, ts, "mawilabd_uploads_total"); !ok || v != fmt.Sprint(K) {
		t.Errorf("uploads_total = %q, want %d", v, K)
	}

	// Every storm client reads back byte-identical, locally verified labels.
	code, body, _ := get(t, ts.URL+"/v1/labels/"+resps[0].Digest+".csv", nil)
	if code != http.StatusOK {
		t.Fatalf("labels = %d", code)
	}
	if !bytes.Equal(body, want) {
		t.Error("served CSV diverges from local Pipeline.Run reference")
	}

	// One clean entry, no tmp debris.
	if s.store.Len() != 1 {
		t.Errorf("store has %d entries, want 1", s.store.Len())
	}
	entries, err := os.ReadDir(s.cfg.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Errorf("tmp debris left in store: %s", e.Name())
		}
	}
}

// TestCommunityFlowsAndIndexCache pins the flow-level community query and
// the resident flow table behind it: the first ?flows= query loads the table
// (miss), repeats serve it from memory (hits), responses are identical
// across cache states, every matched flow honors the community's tuple
// filter — and the flows query changes none of the label bytes, which stay
// pinned to the committed golden fixture.
func TestCommunityFlowsAndIndexCache(t *testing.T) {
	_, csvSHA := goldenFixture(t)
	day := goldenDay(t)
	pcap := pcapBytes(t, day)

	srv, ts := newTestServer(t, Config{})
	code, out, _ := upload(t, ts, pcap, "golden")
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	if j := waitJob(t, ts, out.JobID); j.State != JobDone {
		t.Fatalf("job = %s (%s)", j.State, j.Error)
	}

	// Plain community listing still serves, now carrying the best-rule tuple.
	code, body, _ := get(t, ts.URL+"/v1/labels/"+out.Digest+"/communities", nil)
	if code != http.StatusOK {
		t.Fatalf("communities = %d", code)
	}
	var plain []StoredCommunity
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if len(plain) == 0 {
		t.Fatal("no communities")
	}
	for _, c := range plain {
		for field, v := range map[string]string{"src_ip": c.SrcIP, "src_port": c.SrcPort, "dst_ip": c.DstIP, "dst_port": c.DstPort} {
			if v == "" {
				t.Fatalf("community %d: empty %s (want value or \"*\")", c.Community, field)
			}
		}
	}

	flowsURL := ts.URL + "/v1/labels/" + out.Digest + "/communities?flows=3"
	code, first, _ := get(t, flowsURL, nil)
	if code != http.StatusOK {
		t.Fatalf("flows query = %d", code)
	}
	if v, ok := metricValue(t, ts, "mawilabd_index_cache_misses_total"); !ok || v != "1" {
		t.Errorf("index_cache_misses = %q, want 1 after first query", v)
	}

	for i := 0; i < 3; i++ {
		code, again, _ := get(t, flowsURL, nil)
		if code != http.StatusOK {
			t.Fatalf("repeat flows query = %d", code)
		}
		if !bytes.Equal(first, again) {
			t.Fatal("flows response changed across cache states")
		}
	}
	if v, ok := metricValue(t, ts, "mawilabd_index_cache_hits_total"); !ok || v != "3" {
		t.Errorf("index_cache_hits = %q, want 3 after repeats", v)
	}
	if v, ok := metricValue(t, ts, "mawilabd_index_cache_misses_total"); !ok || v != "1" {
		t.Errorf("index_cache_misses = %q, want still 1 after repeats", v)
	}

	// The matched flows honor each community's tuple filter.
	var withFlows []communityWithFlows
	if err := json.Unmarshal(first, &withFlows); err != nil {
		t.Fatal(err)
	}
	if len(withFlows) != len(plain) {
		t.Fatalf("flows response has %d communities, plain has %d", len(withFlows), len(plain))
	}
	matched := 0
	for _, c := range withFlows {
		if len(c.MatchedFlows) > 3 {
			t.Fatalf("community %d: %d flows, limit 3", c.Community, len(c.MatchedFlows))
		}
		matched += len(c.MatchedFlows)
		for _, fl := range c.MatchedFlows {
			if c.SrcIP != "*" && !strings.HasPrefix(fl, c.SrcIP+":") {
				t.Errorf("community %d: flow %s does not match src %s", c.Community, fl, c.SrcIP)
			}
		}
	}
	if matched == 0 {
		t.Error("no community matched any flow")
	}

	// The flows path changed no served label bytes: still the batch golden.
	code, csv, _ := get(t, ts.URL+"/v1/labels/"+out.Digest+".csv", nil)
	if code != http.StatusOK {
		t.Fatalf("labels = %d", code)
	}
	if got := sha256Hex(csv); got != csvSHA {
		t.Errorf("served CSV sha %s, want golden %s", got, csvSHA)
	}

	// Bad flows values are rejected.
	for _, bad := range []string{"0", "-1", "x"} {
		code, _, _ := get(t, ts.URL+"/v1/labels/"+out.Digest+"/communities?flows="+bad, nil)
		if code != http.StatusBadRequest {
			t.Errorf("flows=%s -> %d, want 400", bad, code)
		}
	}

	// A limit past the table's flow count answers what the flow count does,
	// and costs the answer, not the limit.
	table, _, err := srv.store.Flows(out.Digest)
	if err != nil {
		t.Fatal(err)
	}
	_, all, _ := get(t, ts.URL+"/v1/labels/"+out.Digest+"/communities?flows="+strconv.Itoa(table.Flows()), nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, huge, _ := get(t, ts.URL+"/v1/labels/"+out.Digest+"/communities?flows=2147483647", nil)
	runtime.ReadMemStats(&after)
	if code != http.StatusOK || !bytes.Equal(huge, all) {
		t.Errorf("flows=2147483647 -> %d, want 200 and the flows=%d answer", code, table.Flows())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 10<<20 {
		t.Errorf("flows=2147483647 allocated %d bytes, want under 10 MB", grew)
	}
}

// TestIndexCacheEviction pins the LRU bound on flow tables: with one resident
// entry, two digests alternate and every query is a miss, then a repeat of
// the last digest hits.
func TestIndexCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxResident: 1, QueueDepth: 4})
	var digests []string
	for _, n := range []int{3, 4} {
		code, out, _ := upload(t, ts, pcapBytes(t, tinyTrace(n)), "t")
		if code != http.StatusAccepted {
			t.Fatalf("upload = %d", code)
		}
		if j := waitJob(t, ts, out.JobID); j.State != JobDone {
			t.Fatalf("job = %s (%s)", j.State, j.Error)
		}
		digests = append(digests, out.Digest)
	}
	query := func(d string) {
		t.Helper()
		if code, _, _ := get(t, ts.URL+"/v1/labels/"+d+"/communities?flows=1", nil); code != http.StatusOK {
			t.Fatalf("flows query %s = %d", d, code)
		}
	}
	query(digests[0])
	query(digests[1]) // evicts 0
	query(digests[0]) // miss again
	query(digests[0]) // hit
	if v, ok := metricValue(t, ts, "mawilabd_index_cache_misses_total"); !ok || v != "3" {
		t.Errorf("index_cache_misses = %q, want 3", v)
	}
	if v, ok := metricValue(t, ts, "mawilabd_index_cache_hits_total"); !ok || v != "1" {
		t.Errorf("index_cache_hits = %q, want 1", v)
	}
}

// TestStoreTracePcapRoundTrip pins the persistence the flow-table fallback
// depends on: the stored trace.pcap decodes to the digest it is filed under.
func TestStoreTracePcapRoundTrip(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	code, out, _ := upload(t, ts, pcapBytes(t, tinyTrace(5)), "t")
	if code != http.StatusAccepted {
		t.Fatalf("upload = %d", code)
	}
	waitJob(t, ts, out.JobID)
	data, known, err := srv.store.TracePcap(out.Digest)
	if err != nil || !known {
		t.Fatalf("TracePcap: known=%v err=%v", known, err)
	}
	tr, err := mawilab.ReadPcap(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.NewIndex(tr).Digest(); d != out.Digest {
		t.Errorf("stored trace digest %s, want %s", d, out.Digest)
	}
	if _, known, _ := srv.store.TracePcap("nope"); known {
		t.Error("unknown digest reported as known")
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
