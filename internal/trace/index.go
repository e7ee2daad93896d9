package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
)

// Index is the immutable columnar view of a sorted packet sequence — a whole
// trace, one sealed segment or one window of segments: structure-of-arrays
// packet columns, a canonical sorted flow table with packet-index runs, and
// two postings that re-sort the flow ids by destination IP and by
// destination port. Sort order is the only lookup structure: a flow, a
// source's flows, a destination's or a port's flows and a time window are
// each a binary search, so the index's size follows its packets and flows,
// never the span of its timestamps. It is the only packet representation the
// engine carries past ingest; consumers that need a row call PacketAt.
//
// The pipeline builds the index once per trace and shares it across every
// consumer — the detector fan-out, the similarity estimator's traffic
// extractor, community labeling and the Table 1 heuristics. The column
// slices are exported for hot loops and must not be mutated.
//
// Determinism contract: every Index is built by the sequential IndexBuilder
// and its flow table is sorted canonically, so no structure (flow order,
// runs, postings) depends on goroutine scheduling or worker count.
type Index struct {
	// Packet columns, in packet (timestamp) order.
	TS      []int64
	Src     []IPv4
	Dst     []IPv4
	SrcPort []uint16
	DstPort []uint16
	PktLen  []uint16
	Proto   []Proto
	Flags   []TCPFlags

	// FlowTable is the canonical flow table — flows sorted by (Src, Dst,
	// SrcPort, DstPort, Proto) — with its two postings: the part of the index
	// that has a file form of its own (EncodeFlowTable) and serves flow
	// queries without the packets.
	FlowTable

	// Packet runs: flowPkts holds each flow's packet indices (ascending) as
	// one contiguous run delimited by flowOff; flowOf maps a packet index
	// back to its flow id.
	flowOff  []int32
	flowPkts []int32
	flowOf   []int32

	// arena, when non-nil, is the pooled backing storage of a
	// pcap.DecodeIndex build; Release returns it for reuse. Detached builds
	// leave it nil.
	arena *indexArena
}

// NewIndex builds the index of a materialized trace through a detached
// IndexBuilder — the convenience for tests, tools and figure harnesses that
// hold a *Trace. The trace must be sorted (Trace.Sort) with non-negative
// timestamps; NewIndex has no error return, so it panics with an error
// wrapping ErrUnsorted otherwise. Callers handling untrusted traces use
// SealTrace, which returns that error. Release is a no-op on the result.
func NewIndex(tr *Trace) *Index {
	ix, err := indexPackets(tr.Packets)
	if err != nil {
		panic(err)
	}
	return ix
}

// indexPackets feeds a materialized packet slice through one detached
// builder.
func indexPackets(ps []Packet) (*Index, error) {
	b := newDetachedBuilder(len(ps))
	for i := range ps {
		if err := b.Add(ps[i]); err != nil {
			return nil, err
		}
	}
	return b.Finish(), nil
}

// Len returns the number of indexed packets.
func (ix *Index) Len() int { return len(ix.TS) }

// Start returns the timestamp of the first packet in seconds (0 when
// empty).
func (ix *Index) Start() float64 {
	if len(ix.TS) == 0 {
		return 0
	}
	return float64(ix.TS[0]) / 1e6
}

// Duration returns the trace duration in seconds (timestamp of the last
// packet; 0 when empty), matching Trace.Duration.
func (ix *Index) Duration() float64 {
	if len(ix.TS) == 0 {
		return 0
	}
	return float64(ix.TS[len(ix.TS)-1]) / 1e6
}

// PacketAt returns the full packet record at index i, for library callers
// and tests that want the row form; the engine itself reads the columns and
// the flow table.
func (ix *Index) PacketAt(i int) Packet {
	return Packet{
		TS:      ix.TS[i],
		Src:     ix.Src[i],
		Dst:     ix.Dst[i],
		SrcPort: ix.SrcPort[i],
		DstPort: ix.DstPort[i],
		Len:     ix.PktLen[i],
		Proto:   ix.Proto[i],
		Flags:   ix.Flags[i],
	}
}

// Digest returns the index's canonical content digest: hex sha256 over one
// fixed-width 24-byte little-endian record per packet — TS, Src, Dst,
// SrcPort, DstPort, Len, Proto, Flags — so two packet sequences share a
// digest iff they are identical under the trace model. It is the one digest
// definition: the golden fixtures hash through it, and the serve path keys
// its label store and dedup on it. The records are hashed digestBlock at a
// time, one Write per block.
func (ix *Index) Digest() string {
	h := sha256.New()
	var buf [digestBlock * digestRecordLen]byte
	for lo := 0; lo < len(ix.TS); lo += digestBlock {
		hi := min(lo+digestBlock, len(ix.TS))
		rec := buf[:]
		for i := lo; i < hi; i++ {
			le := binary.LittleEndian
			le.PutUint64(rec[0:8], uint64(ix.TS[i]))
			le.PutUint64(rec[8:16], uint64(ix.Src[i])|uint64(ix.Dst[i])<<32)
			le.PutUint64(rec[16:24], uint64(ix.SrcPort[i])|uint64(ix.DstPort[i])<<16|
				uint64(ix.PktLen[i])<<32|uint64(ix.Proto[i])<<48|uint64(ix.Flags[i])<<56)
			rec = rec[digestRecordLen:]
		}
		h.Write(buf[:(hi-lo)*digestRecordLen])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestRecordLen is one packet's record in Digest; digestBlock records make
// a whole number (48) of sha256 blocks.
const (
	digestRecordLen = 24
	digestBlock     = 128
)

// FlowPackets returns flow fi's packet indices, ascending. The slice
// aliases the index and must not be mutated.
func (ix *Index) FlowPackets(fi int) []int32 {
	return ix.flowPkts[ix.flowOff[fi]:ix.flowOff[fi+1]]
}

// FlowIDOf returns the flow-table id of packet pi.
func (ix *Index) FlowIDOf(pi int) int32 { return ix.flowOf[pi] }

// Window returns the index range [lo,hi) of packets with timestamps in
// [from,to) microseconds: one binary search per bound over the sorted TS
// column.
func (ix *Index) Window(from, to int64) (lo, hi int) {
	return ix.searchTS(from), ix.searchTS(to)
}

// searchTS returns the first packet index with TS >= ts.
func (ix *Index) searchTS(ts int64) int {
	return sort.Search(len(ix.TS), func(i int) bool { return ix.TS[i] >= ts })
}
