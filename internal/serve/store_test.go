package serve

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
// supplied and left out when not, FlowTable hands back the stored bytes, and
// an entry without the file reads as fs.ErrNotExist — what the flows query
// counts as a missing flow table.
func TestStorePutEntryOptionalFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutEntry(Entry{Meta: testMeta("both"), CSV: []byte("c"), ADMD: []byte("a"), Pcap: []byte("pcap"), Flows: []byte("flows")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testMeta("bare"), []byte("c"), []byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	if data, known, err := s.FlowTable("both"); err != nil || !known || string(data) != "flows" {
		t.Errorf("FlowTable(both) = %q/%v/%v", data, known, err)
	}
	if data, known, err := s.TracePcap("both"); err != nil || !known || string(data) != "pcap" {
		t.Errorf("TracePcap(both) = %q/%v/%v", data, known, err)
	}
	if _, known, err := s.FlowTable("bare"); !known || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("FlowTable(bare) = known=%v err=%v, want a known entry and fs.ErrNotExist", known, err)
	}
	if _, known, err := s.FlowTable("nope"); known || err != nil {
		t.Errorf("FlowTable(nope) = known=%v err=%v", known, err)
	}
	files, err := os.ReadDir(filepath.Join(dir, "bare"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Errorf("bare entry holds %d files, want meta.json, labels.csv, labels.admd", len(files))
	}
}
