package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mawilab/internal/pcap"
	"mawilab/internal/trace"
)

// StoredCommunity is one labeled community in an entry's metadata — the
// unit the community-query endpoint serves without touching the heavy
// labeling objects.
type StoredCommunity struct {
	Community int    `json:"community"`
	Label     string `json:"label"`
	// SrcIP/SrcPort/DstIP/DstPort are the community's best-rule 4-tuple as
	// the CSV schema renders it ("*" = wildcard) — the filter the flows
	// query resolves against the trace index. Entries written before the
	// tuple existed leave them empty, which the flows query treats as
	// wildcards.
	SrcIP     string  `json:"src_ip,omitempty"`
	SrcPort   string  `json:"src_port,omitempty"`
	DstIP     string  `json:"dst_ip,omitempty"`
	DstPort   string  `json:"dst_port,omitempty"`
	Heuristic string  `json:"heuristic"`
	Category  string  `json:"category"`
	Packets   int     `json:"packets"`
	Flows     int     `json:"flows"`
	Score     float64 `json:"score"`
}

// EntryMeta is the always-resident summary of one labeled trace, persisted
// as meta.json next to the encoded labels.
type EntryMeta struct {
	// Digest is the trace.Digest the entry is keyed by.
	Digest string `json:"digest"`
	// Trace is the trace name supplied at upload time.
	Trace string `json:"trace"`
	// Packets is the trace length.
	Packets int `json:"packets"`
	// Alarms is the detector-ensemble output size.
	Alarms int `json:"alarms"`
	// Anomalous counts communities labeled anomalous.
	Anomalous int `json:"anomalous"`
	// Communities summarizes every community report.
	Communities []StoredCommunity `json:"communities"`
	// CSVSHA256 is the hex digest of the stored CSV encoding — the value
	// the determinism contract pins against the batch CLI output.
	CSVSHA256 string `json:"csv_sha256"`
	// LabeledAt is when the labeling job finished.
	LabeledAt time.Time `json:"labeled_at"`
	// Workers is the pipeline worker count that produced the labeling
	// (informational: every count yields the same bytes).
	Workers int `json:"workers"`
}

// residentEntry is the evictable heavy part of an entry: the encoded label
// documents and, once a flows query asked for it, the trace's flow table.
// Metadata stays resident; these fall out of the LRU together and are re-read
// from disk on demand.
type residentEntry struct {
	csv  []byte
	admd []byte
	// flows is nil until a flows query claims it; guarded by Store.mu, its
	// contents by its own Once.
	flows *flowSlot
}

// flowSlot is one resident entry's flow table: loaded once, by the first
// query to claim the slot, and read-only from then on.
type flowSlot struct {
	once  sync.Once
	table *trace.FlowTable
	err   error
}

// Store is the digest-keyed label store: every completed labeling is
// persisted under dir/<digest>/ (meta.json, labels.csv, labels.admd,
// trace.pcap, flows.bin) with crash-safe tmp-rename writes, metadata for every
// entry stays resident, and one LRU bounds how many entries' labels — and
// flow tables, once asked for — are held in memory. A Store is safe for
// concurrent use.
type Store struct {
	dir         string
	maxResident int

	mu       sync.Mutex
	meta     map[string]*EntryMeta
	resident map[string]*residentEntry
	order    []string // LRU order, oldest first

	// DiskReads counts label reads that missed the resident LRU and went
	// to disk; nil disables. Assigned once before first use.
	DiskReads *Counter

	// flowHits and flowMisses count Flows calls: a miss is one load, every
	// other call a hit. flowFallbacks counts loads that found no valid
	// flows.bin, by reason. nil disables; assigned once before first use.
	flowHits, flowMisses *Counter
	flowFallbacks        *Family[Counter]
	// loadFlows reads a digest's flow table from disk: readFlows, or a test's
	// stand-in.
	loadFlows func(digest string) (*trace.FlowTable, error)
}

// tmpPrefix marks in-progress entry writes; leftovers are crash debris and
// are swept on open.
const tmpPrefix = ".tmp-"

// OpenStore opens (creating if needed) the store rooted at dir, recovers
// every complete entry already on disk, and sweeps partial tmp writes left
// by a crash. maxResident bounds the entries whose labels — and flow tables,
// once asked for — stay in memory (<= 0 means 8).
func OpenStore(dir string, maxResident int) (*Store, error) {
	if maxResident <= 0 {
		maxResident = 8
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	s := &Store{
		dir:         dir,
		maxResident: maxResident,
		meta:        make(map[string]*EntryMeta),
		resident:    make(map[string]*residentEntry),
	}
	s.loadFlows = s.readFlows
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			// A write that never reached its rename: remove the debris; the
			// entry was never visible, so nothing is lost.
			os.RemoveAll(filepath.Join(dir, e.Name()))
			continue
		}
		meta, err := readMeta(filepath.Join(dir, e.Name(), "meta.json"))
		if err != nil || meta.Digest != e.Name() {
			continue // not a valid entry; leave it alone but don't serve it
		}
		s.meta[meta.Digest] = meta
	}
	return s, nil
}

func readMeta(path string) (*EntryMeta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m EntryMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Has reports whether the digest has a completed entry — the cache-hit
// check admission control runs before scheduling any recompute.
func (s *Store) Has(digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.meta[digest]
	return ok
}

// Meta returns the entry summary for a digest.
func (s *Store) Meta(digest string) (*EntryMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.meta[digest]
	return m, ok
}

// List returns every entry's metadata sorted by digest.
func (s *Store) List() []*EntryMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*EntryMeta, 0, len(s.meta))
	for _, m := range s.meta {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}

// Len returns the number of completed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.meta)
}

// Entry is everything one labeling persists, as PutEntry takes it.
type Entry struct {
	Meta *EntryMeta
	// CSV and ADMD are the two encoded label documents.
	CSV, ADMD []byte
	// Pcap, when non-empty, is stored as trace.pcap: the trace itself, from
	// which a flow query can rebuild what Flows holds. The daemon passes
	// pcap.EncodeIndex's payload-stripped file, which decodes to the same
	// index and digest as the upload; any pcap that does — a full-frame one
	// from an older store included — serves the same.
	Pcap []byte
	// Flows, when non-empty, is stored as flows.bin: the trace's flow table
	// in trace.EncodeFlowTable's form, which is all a flow query reads.
	Flows []byte
}

// Put is PutEntry without a flow table — the signature cmd/mawibench's
// in-process store timing calls.
func (s *Store) Put(meta *EntryMeta, csv, admd, pcap []byte) error {
	return s.PutEntry(Entry{Meta: meta, CSV: csv, ADMD: admd, Pcap: pcap})
}

// PutEntry persists one labeling atomically: every file is written into a
// tmp-prefixed sibling directory which is then renamed into place, so a
// reader (or a crash) can never observe a partial entry. Re-putting an
// existing digest is an idempotent no-op.
func (s *Store) PutEntry(e Entry) error {
	meta := e.Meta
	if meta.Digest == "" {
		return fmt.Errorf("serve: store: empty digest")
	}
	s.mu.Lock()
	_, exists := s.meta[meta.Digest]
	s.mu.Unlock()
	if exists {
		return nil
	}

	tmp, err := os.MkdirTemp(s.dir, tmpPrefix+meta.Digest+"-")
	if err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename

	metaJSON, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	for _, f := range []struct {
		name     string
		data     []byte
		optional bool // left out of the entry when empty
	}{
		{"labels.csv", e.CSV, false},
		{"labels.admd", e.ADMD, false},
		{"meta.json", append(metaJSON, '\n'), false},
		{"trace.pcap", e.Pcap, true},
		{"flows.bin", e.Flows, true},
	} {
		if f.optional && len(f.data) == 0 {
			continue
		}
		if err := os.WriteFile(filepath.Join(tmp, f.name), f.data, 0o644); err != nil {
			return fmt.Errorf("serve: store: %w", err)
		}
	}
	final := filepath.Join(s.dir, meta.Digest)
	if err := os.Rename(tmp, final); err != nil {
		// A concurrent Put of the same digest can win the rename; the entry
		// is then complete and identical (labelings are deterministic).
		if _, statErr := os.Stat(filepath.Join(final, "meta.json")); statErr != nil {
			return fmt.Errorf("serve: store: %w", err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.meta[meta.Digest]; !ok {
		s.meta[meta.Digest] = meta
		s.admit(meta.Digest, &residentEntry{csv: e.CSV, admd: e.ADMD})
	}
	return nil
}

// Labels returns the encoded labeling for a digest in the given format
// ("csv" or "admd"): from the resident LRU when hot, re-read from disk and
// re-admitted when evicted. The second result is false for unknown digests.
func (s *Store) Labels(digest, format string) ([]byte, bool, error) {
	r, known, err := s.entry(digest, s.DiskReads)
	if r == nil {
		return nil, known, err
	}
	if format == "admd" {
		return r.admd, true, nil
	}
	return r.csv, true, nil
}

// Flows returns the flow table of a digest's trace, loading it into the
// digest's resident entry on first use: the entry is admitted as a label read
// admits it, and the load runs outside the store's lock under the slot's own
// Once, so one digest's load never stalls a read or flows query for another
// and racing queries for one digest load exactly once. The table is shared and
// immutable, and owns its storage, so an evicted one stays valid for the
// callers that still hold it. A failed load is not kept: the callers that
// waited on it share its error and the next call loads again. The second
// result is false for unknown digests.
func (s *Store) Flows(digest string) (*trace.FlowTable, bool, error) {
	r, known, err := s.entry(digest, nil)
	if r == nil {
		return nil, known, err
	}
	s.mu.Lock()
	if r.flows == nil {
		r.flows = new(flowSlot)
	}
	slot := r.flows
	s.mu.Unlock()

	loaded := false
	slot.once.Do(func() {
		loaded = true
		s.flowMisses.Inc()
		slot.table, slot.err = s.loadFlows(digest)
	})
	switch {
	case !loaded:
		s.flowHits.Inc()
	case slot.err != nil:
		s.mu.Lock()
		if r.flows == slot { // still the slot that failed
			r.flows = nil
		}
		s.mu.Unlock()
	}
	return slot.table, true, slot.err
}

// entry returns a digest's resident entry, reading its labels from disk and
// admitting it when evicted; diskReads, when non-nil, counts that read. A nil
// entry comes with false for an unknown digest, or with the read's error.
func (s *Store) entry(digest string, diskReads *Counter) (*residentEntry, bool, error) {
	s.mu.Lock()
	if _, ok := s.meta[digest]; !ok {
		s.mu.Unlock()
		return nil, false, nil
	}
	if r, ok := s.resident[digest]; ok {
		s.touch(digest)
		s.mu.Unlock()
		return r, true, nil
	}
	s.mu.Unlock()

	diskReads.Inc()
	csv, err := os.ReadFile(filepath.Join(s.dir, digest, "labels.csv"))
	if err != nil {
		return nil, true, fmt.Errorf("serve: store: %w", err)
	}
	admd, err := os.ReadFile(filepath.Join(s.dir, digest, "labels.admd"))
	if err != nil {
		return nil, true, fmt.Errorf("serve: store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admit(digest, &residentEntry{csv: csv, admd: admd}), true, nil
}

// admit makes r the digest's resident entry — unless a racing read admitted
// one first, which is refreshed and returned instead, flow table and all —
// and evicts the oldest beyond the LRU bound. Caller holds s.mu.
func (s *Store) admit(digest string, r *residentEntry) *residentEntry {
	if cur, ok := s.resident[digest]; ok {
		s.touch(digest)
		return cur
	}
	s.resident[digest] = r
	s.order = append(s.order, digest)
	for len(s.resident) > s.maxResident {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.resident, oldest)
	}
	return r
}

// touch moves a digest to the back of the LRU order. Caller holds s.mu.
func (s *Store) touch(digest string) {
	for i, d := range s.order {
		if d == digest {
			s.order = append(append(s.order[:i:i], s.order[i+1:]...), digest)
			return
		}
	}
}

// TracePcap returns the persisted encoded trace for a digest. The second
// result is false for unknown digests; a known entry written before trace
// persistence existed returns an error from the underlying read.
func (s *Store) TracePcap(digest string) ([]byte, bool, error) {
	if !s.Has(digest) {
		return nil, false, nil
	}
	data, err := os.ReadFile(filepath.Join(s.dir, digest, "trace.pcap"))
	if err != nil {
		return nil, true, fmt.Errorf("serve: store: %w", err)
	}
	return data, true, nil
}

// readFlows reads a stored entry's flow table: from flows.bin, or — when the
// entry has none (a store written before the file existed) or the file fails
// its checks — out of the stored trace.pcap, which answers the same at the
// price of decoding every packet. Each fallback is counted by reason; the read
// path never writes, so a legacy entry pays that price on every load.
func (s *Store) readFlows(digest string) (*trace.FlowTable, error) {
	reason := "missing"
	if data, err := os.ReadFile(filepath.Join(s.dir, digest, "flows.bin")); err == nil {
		flows, err := trace.DecodeFlowTable(data)
		if err == nil {
			return flows, nil
		}
		reason = "corrupt"
	}
	s.flowFallbacks.With(reason).Inc()

	data, err := os.ReadFile(filepath.Join(s.dir, digest, "trace.pcap"))
	if err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	ix, err := pcap.DecodeIndex(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("serve: decoding stored trace for %s: %w", digest, err)
	}
	// The table outlives this call, the pooled index must not: keep a copy
	// of the flow table and recycle the rest.
	defer ix.Release()
	return ix.FlowTable.Clone(), nil
}

// Resident returns how many entries are currently held in memory.
func (s *Store) Resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.resident)
}
