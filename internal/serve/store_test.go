package serve

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mawilab/internal/trace"
)

func testMeta(digest string) *EntryMeta {
	return &EntryMeta{
		Digest: digest, Trace: "t-" + digest, Packets: 3, Alarms: 2,
		Communities: []StoredCommunity{{Community: 0, Label: "anomalous", Score: 0.9}},
		Anomalous:   1, CSVSHA256: "x",
	}
}

func TestStorePutGetRecover(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testMeta("d1"), []byte("csv1"), []byte("admd1"), nil); err != nil {
		t.Fatal(err)
	}
	if !s.Has("d1") || s.Has("nope") {
		t.Error("Has wrong")
	}
	for format, want := range map[string]string{"csv": "csv1", "admd": "admd1"} {
		data, known, err := s.Labels("d1", format)
		if err != nil || !known || string(data) != want {
			t.Errorf("Labels(%s) = %q/%v/%v, want %q", format, data, known, err, want)
		}
	}
	// Idempotent re-put.
	if err := s.Put(testMeta("d1"), []byte("other"), []byte("other"), nil); err != nil {
		t.Fatal(err)
	}
	data, _, _ := s.Labels("d1", "csv")
	if string(data) != "csv1" {
		t.Error("re-put overwrote entry")
	}

	// A fresh Store over the same dir recovers the entry from disk.
	s2, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has("d1") {
		t.Fatal("entry not recovered after reopen")
	}
	meta, ok := s2.Meta("d1")
	if !ok || meta.Trace != "t-d1" || len(meta.Communities) != 1 {
		t.Errorf("recovered meta = %+v", meta)
	}
	data, known, err := s2.Labels("d1", "csv")
	if err != nil || !known || string(data) != "csv1" {
		t.Errorf("recovered labels = %q/%v/%v", data, known, err)
	}
}

// TestStoreSweepsCrashDebris pins the crash-safety contract: a write that
// died before its rename is invisible and swept on reopen — no partial
// entry is ever served.
func TestStoreSweepsCrashDebris(t *testing.T) {
	dir := t.TempDir()
	// Simulate a crash mid-write: a tmp dir with a partial file.
	debris := filepath.Join(dir, tmpPrefix+"deadbeef-123")
	if err := os.MkdirAll(debris, 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(debris, "labels.csv"), []byte("partial"), 0o644)
	// And an unrelated non-entry directory, which must be left alone.
	other := filepath.Join(dir, "not-an-entry")
	os.MkdirAll(other, 0o755)

	s, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Error("crash debris not swept")
	}
	if _, err := os.Stat(other); err != nil {
		t.Error("unrelated directory removed")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var disk Counter
	s.DiskReads = &disk
	for _, d := range []string{"a", "b", "c"} {
		if err := s.Put(testMeta(d), []byte("csv-"+d), []byte("admd-"+d), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Resident(); got != 2 {
		t.Errorf("resident = %d, want 2 (LRU bound)", got)
	}
	// "a" was evicted: reading it goes to disk and re-admits it.
	data, known, err := s.Labels("a", "csv")
	if err != nil || !known || string(data) != "csv-a" {
		t.Fatalf("evicted entry unreadable: %q/%v/%v", data, known, err)
	}
	if disk.Value() != 1 {
		t.Errorf("disk reads = %d, want 1", disk.Value())
	}
	// Second read is resident again.
	if _, _, err := s.Labels("a", "csv"); err != nil {
		t.Fatal(err)
	}
	if disk.Value() != 1 {
		t.Errorf("disk reads after re-admit = %d, want 1", disk.Value())
	}
	if got := s.Resident(); got != 2 {
		t.Errorf("resident after re-admit = %d, want 2", got)
	}
}

func TestStoreUnknownDigest(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, known, err := s.Labels("missing", "csv"); known || err != nil {
		t.Errorf("unknown digest = known=%v err=%v", known, err)
	}
	if err := s.Put(&EntryMeta{}, nil, nil, nil); err == nil {
		t.Error("empty digest accepted")
	}
}

func TestStoreList(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"b", "a"} {
		if err := s.Put(testMeta(d), nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	list := s.List()
	if len(list) != 2 || list[0].Digest != "a" || list[1].Digest != "b" {
		t.Errorf("List not sorted by digest: %v", []string{list[0].Digest, list[1].Digest})
	}
}

// TestStoreNoTmpAfterPut pins that a successful Put leaves no tmp debris —
// the invariant the drain test relies on for "never a partial entry".
func TestStoreNoTmpAfterPut(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testMeta("d1"), []byte("c"), []byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Errorf("tmp debris after Put: %s", e.Name())
		}
	}
	for _, f := range []string{"meta.json", "labels.csv", "labels.admd"} {
		if _, err := os.Stat(filepath.Join(dir, "d1", f)); err != nil {
			t.Errorf("entry file missing: %v", err)
		}
	}
}

// TestStorePutEntryOptionalFiles: trace.pcap and flows.bin are written when
// supplied and left out when not, and Flows on an entry that has neither
// fails — counted as a missing flow table, and not kept.
func TestStorePutEntryOptionalFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := NewRegistry().CounterVec("fallbacks_total", "flow-table fallbacks", "reason")
	s.flowFallbacks = fallbacks
	if err := s.PutEntry(Entry{Meta: testMeta("both"), CSV: []byte("c"), ADMD: []byte("a"), Pcap: []byte("pcap"), Flows: []byte("flows")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testMeta("bare"), []byte("c"), []byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, "both", "flows.bin")); err != nil || string(data) != "flows" {
		t.Errorf("both/flows.bin = %q/%v", data, err)
	}
	if data, known, err := s.TracePcap("both"); err != nil || !known || string(data) != "pcap" {
		t.Errorf("TracePcap(both) = %q/%v/%v", data, known, err)
	}
	if _, known, err := s.Flows("bare"); !known || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Flows(bare) = known=%v err=%v, want a known entry and fs.ErrNotExist", known, err)
	}
	if n := fallbacks.With("missing").Value(); n != 1 {
		t.Errorf("fallbacks{missing} = %d, want 1", n)
	}
	if _, known, err := s.Flows("nope"); known || err != nil {
		t.Errorf("Flows(nope) = known=%v err=%v", known, err)
	}
	files, err := os.ReadDir(filepath.Join(dir, "bare"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Errorf("bare entry holds %d files, want meta.json, labels.csv, labels.admd", len(files))
	}
}

// countedStore opens a store of maxResident entries with its flow counters
// attached, puts one entry per digest, and stands in load for its flow-table
// reads.
func countedStore(t *testing.T, maxResident int, load func(digest string) (*trace.FlowTable, error), digests ...string) (s *Store, hits, misses, disk *Counter) {
	t.Helper()
	s, err := OpenStore(t.TempDir(), maxResident)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, disk = new(Counter), new(Counter), new(Counter)
	s.flowHits, s.flowMisses, s.DiskReads = hits, misses, disk
	s.loadFlows = load
	for _, d := range digests {
		if err := s.Put(testMeta(d), []byte("csv-"+d), []byte("admd-"+d), nil); err != nil {
			t.Fatal(err)
		}
	}
	return s, hits, misses, disk
}

// TestIndexCacheMissDoesNotBlockHits: while one digest's flow-table load is
// parked, a hit on another digest — and a miss on a third — return. The load
// runs outside the store's lock, under the entry's own Once.
func TestIndexCacheMissDoesNotBlockHits(t *testing.T) {
	warm := new(trace.FlowTable)
	loading, release := make(chan struct{}), make(chan struct{})
	s, hits, misses, _ := countedStore(t, 4, func(digest string) (*trace.FlowTable, error) {
		switch digest {
		case "warm":
			return warm, nil
		case "slow":
			close(loading)
			<-release
		}
		return new(trace.FlowTable), nil
	}, "warm", "slow", "other")
	if _, _, err := s.Flows("warm"); err != nil {
		t.Fatal(err)
	}

	parked := make(chan error, 1)
	go func() {
		_, _, err := s.Flows("slow")
		parked <- err
	}()
	<-loading

	done := make(chan *trace.FlowTable, 1)
	go func() {
		got, _, _ := s.Flows("warm")
		s.Flows("other")
		done <- got
	}()
	select {
	case got := <-done:
		if got != warm {
			t.Error("the hit returned another table than the one loaded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a query on another digest waited for the parked load")
	}
	close(release)
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	if h, m := hits.Value(), misses.Value(); h != 1 || m != 3 {
		t.Errorf("hits=%d misses=%d, want 1 and 3 (warm, slow, other)", h, m)
	}
}

// TestIndexCacheBuildsOnce: racing queries for one evicted digest admit one
// entry, load its flow table once and share it — one miss, the rest hits —
// and a failed load is shared by those who waited on it but not kept.
func TestIndexCacheBuildsOnce(t *testing.T) {
	var loads atomic.Int32
	boom := errors.New("boom")
	s, hits, misses, _ := countedStore(t, 1, func(digest string) (*trace.FlowTable, error) {
		if digest == "bad" {
			return nil, boom
		}
		loads.Add(1)
		return new(trace.FlowTable), nil
	}, "d", "bad") // "bad" evicted "d"
	start := make(chan struct{})
	tables := make([]*trace.FlowTable, 8)
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tables[i], _, _ = s.Flows("d")
		}()
	}
	close(start)
	wg.Wait()
	for _, ft := range tables {
		if ft == nil || ft != tables[0] {
			t.Fatal("racing queries did not share one table")
		}
	}
	if l, h, m := loads.Load(), hits.Value(), misses.Value(); l != 1 || m != 1 || h != 7 {
		t.Errorf("loads=%d hits=%d misses=%d, want 1, 7, 1", l, h, m)
	}

	for i := 0; i < 2; i++ {
		if _, _, err := s.Flows("bad"); err != boom {
			t.Fatalf("failed load returned %v", err)
		}
	}
	if m := misses.Value(); m != 3 {
		t.Errorf("misses=%d, want 3: a failed load must be retried, not kept", m)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.resident["bad"]; r == nil || r.flows != nil {
		t.Error("the failed load left its flow slot behind")
	}
}

// TestFlowsReloadAfterFailedLoad: the query after a failed flow-table load
// loads again and, once that succeeds, later queries hit.
func TestFlowsReloadAfterFailedLoad(t *testing.T) {
	fail := true
	want := new(trace.FlowTable)
	s, hits, misses, _ := countedStore(t, 2, func(string) (*trace.FlowTable, error) {
		if fail {
			fail = false
			return nil, errors.New("transient")
		}
		return want, nil
	}, "d")
	if _, _, err := s.Flows("d"); err == nil {
		t.Fatal("the first load should fail")
	}
	for i := 0; i < 2; i++ {
		got, known, err := s.Flows("d")
		if err != nil || !known || got != want {
			t.Fatalf("query %d after the failure = %p/%v/%v, want the reloaded table", i, got, known, err)
		}
	}
	if h, m := hits.Value(), misses.Value(); h != 1 || m != 2 {
		t.Errorf("hits=%d misses=%d, want 1 and 2 (failed, reloaded, hit)", h, m)
	}
}

// TestFlowsQueryAdmitsEvictedEntry: a flows query on an evicted entry reads
// its labels back and re-admits it, so the label read that follows is a
// resident hit; only label reads that miss count as disk reads.
func TestFlowsQueryAdmitsEvictedEntry(t *testing.T) {
	s, _, misses, disk := countedStore(t, 1, func(string) (*trace.FlowTable, error) {
		return new(trace.FlowTable), nil
	}, "a", "b") // "b" evicted "a"
	if _, known, err := s.Flows("a"); err != nil || !known {
		t.Fatalf("Flows(a) = known=%v err=%v", known, err)
	}
	if d := disk.Value(); d != 0 {
		t.Errorf("disk reads after a flows query = %d, want 0", d)
	}
	data, _, err := s.Labels("a", "admd")
	if err != nil || string(data) != "admd-a" {
		t.Fatalf("Labels(a) = %q/%v", data, err)
	}
	if d := disk.Value(); d != 0 {
		t.Errorf("disk reads after the label read = %d, want 0 (resident)", d)
	}
	if _, _, err := s.Labels("b", "csv"); err != nil {
		t.Fatal(err)
	}
	if d, r := disk.Value(), s.Resident(); d != 1 || r != 1 {
		t.Errorf("after reading evicted b: disk reads=%d resident=%d, want 1 and 1", d, r)
	}
	if _, _, err := s.Flows("a"); err != nil {
		t.Fatal(err)
	}
	if m := misses.Value(); m != 2 {
		t.Errorf("misses=%d, want 2: a's flow table left with its entry", m)
	}
}
