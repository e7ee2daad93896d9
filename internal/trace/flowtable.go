package trace

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
)

// FlowTable is the flow half of an Index: the canonical sorted flow table and
// the two postings that re-sort its ids by destination IP and by destination
// port. Every Index embeds one; DecodeFlowTable returns one on its own — a
// flow-only view that answers Flows, Flow, FlowID and CandidateFlows exactly
// as the index it was encoded from, and has no packet column to be asked for.
// A FlowTable is immutable and safe for concurrent readers.
type FlowTable struct {
	// flows is sorted by (Src, Dst, SrcPort, DstPort, Proto).
	flows []FlowKey

	// Postings: the flow ids ordered by (Dst, id) and by (DstPort, id), so
	// one value's flows are a contiguous, ascending range of each. Source
	// needs none: the flow table itself is sorted by Src first.
	byDst     []int32
	byDstPort []int32
}

// flowCompare is the canonical flow-table order: by source, destination,
// source port, destination port, protocol. FlowID's binary search,
// DecodeFlowTable's order check and the test references compare with it;
// Finish produces the same order without comparing (sortFlowWords).
func flowCompare(a, b FlowKey) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SrcPort, b.SrcPort); c != 0 {
		return c
	}
	if c := cmp.Compare(a.DstPort, b.DstPort); c != 0 {
		return c
	}
	return cmp.Compare(a.Proto, b.Proto)
}

// Flows returns the number of distinct unidirectional flows.
func (t *FlowTable) Flows() int { return len(t.flows) }

// Flow returns the flow key at flow-table index fi.
func (t *FlowTable) Flow(fi int) FlowKey { return t.flows[fi] }

// FlowID returns the flow-table index of key k, and whether the trace
// carries that flow: a binary search over the canonically sorted table.
func (t *FlowTable) FlowID(k FlowKey) (int, bool) {
	return slices.BinarySearchFunc(t.flows, k, flowCompare)
}

// Candidates is an ascending run of flow ids: a range of the flow table, or a
// stretch of one posting. It is a plain value — CandidateFlows allocates
// nothing — walked with Len and At.
type Candidates struct {
	lo, hi int     // flow-table range, when ids is nil
	ids    []int32 // posting stretch otherwise
}

// Len returns the number of candidate flows.
func (c Candidates) Len() int {
	if c.ids != nil {
		return len(c.ids)
	}
	return c.hi - c.lo
}

// At returns the i-th candidate flow id; ids ascend with i.
func (c Candidates) At(i int) int {
	if c.ids != nil {
		return int(c.ids[i])
	}
	return c.lo + i
}

// CandidateFlows returns the shortest run of flow ids guaranteed to contain
// every flow the filter can match: the flow table's range for the filter's
// source IP, the posting stretch for its destination IP or destination port,
// or the whole table when it constrains none of the three. Candidates still
// require a Filter.MatchFlow check; the run only prunes.
func (t *FlowTable) CandidateFlows(f Filter) Candidates {
	best := Candidates{hi: len(t.flows)}
	if f.Src != nil {
		lo, hi := equalRange(len(t.flows), func(i int) IPv4 { return t.flows[i].Src }, *f.Src)
		best = Candidates{lo: lo, hi: hi}
	}
	if f.Dst != nil {
		lo, hi := equalRange(len(t.byDst), func(i int) IPv4 { return t.flows[t.byDst[i]].Dst }, *f.Dst)
		if hi-lo < best.Len() {
			best = Candidates{ids: t.byDst[lo:hi:hi]}
		}
	}
	if f.DstPort != nil {
		lo, hi := equalRange(len(t.byDstPort), func(i int) uint16 { return t.flows[t.byDstPort[i]].DstPort }, *f.DstPort)
		if hi-lo < best.Len() {
			best = Candidates{ids: t.byDstPort[lo:hi:hi]}
		}
	}
	return best
}

// equalRange returns the positions [lo,hi) of [0,n) whose key equals v; key
// must be non-decreasing.
func equalRange[K cmp.Ordered](n int, key func(int) K, v K) (lo, hi int) {
	lo = sort.Search(n, func(i int) bool { return key(i) >= v })
	hi = lo + sort.Search(n-lo, func(i int) bool { return key(lo+i) > v })
	return lo, hi
}

// Clone returns a copy that shares no storage with t — how a reader keeps the
// flow view of a pooled Index past its Release.
func (t *FlowTable) Clone() *FlowTable {
	return &FlowTable{
		flows:     slices.Clone(t.flows),
		byDst:     slices.Clone(t.byDst),
		byDstPort: slices.Clone(t.byDstPort),
	}
}

// setPostings sorts the ids of t.flows into the two postings, (Dst, id) and
// (DstPort, id) order, filling byDst and byDstPort — each as long as the flow
// table — which t then holds. The id rides in the low half of each sort word,
// so one comparator-free sort orders the keys and leaves every key's ids
// ascending. words is scratch of twice the flow count (sortedPosting).
func (t *FlowTable) setPostings(byDst, byDstPort []int32, words []uint64) {
	for fi := range t.flows {
		words[fi] = uint64(t.flows[fi].Dst)<<32 | uint64(fi)
	}
	sortedPosting(byDst, words)
	for fi := range t.flows {
		words[fi] = uint64(t.flows[fi].DstPort)<<32 | uint64(fi)
	}
	sortedPosting(byDstPort, words)
	t.byDst, t.byDstPort = byDst, byDstPort
}

// The flow-table file (see the package comment for the why of each field).
const (
	flowTableMagic   = "MWFT"
	flowTableVersion = 1
	flowTableHeader  = len(flowTableMagic) + 1 + 4 // magic, version, count
	flowRecordLen    = 13
	flowTableTrailer = 4 // CRC-32C
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFlowTable rejects bytes that are not an intact flow-table file: a bad
// magic, an unknown version, a length that disagrees with the flow count, a
// checksum mismatch, or keys not strictly ascending in the canonical order.
// Match with errors.Is; the wrapped text names the reason.
var ErrFlowTable = errors.New("trace: not a valid flow-table file")

// putFlowRecord writes k as the file's 13-byte record: Src, Dst, SrcPort,
// DstPort, Proto.
func putFlowRecord(rec []byte, k FlowKey) {
	binary.LittleEndian.PutUint32(rec[0:4], uint32(k.Src))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(k.Dst))
	binary.LittleEndian.PutUint16(rec[8:10], k.SrcPort)
	binary.LittleEndian.PutUint16(rec[10:12], k.DstPort)
	rec[12] = byte(k.Proto)
}

// flowRecord reads the record putFlowRecord wrote.
func flowRecord(rec []byte) FlowKey {
	return FlowKey{
		Src:     IPv4(binary.LittleEndian.Uint32(rec[0:4])),
		Dst:     IPv4(binary.LittleEndian.Uint32(rec[4:8])),
		SrcPort: binary.LittleEndian.Uint16(rec[8:10]),
		DstPort: binary.LittleEndian.Uint16(rec[10:12]),
		Proto:   Proto(rec[12]),
	}
}

// EncodeFlowTable returns t's file form — 13 bytes per flow plus 13 — in one
// allocation of exactly that length. Pass &ix.FlowTable for an Index.
func EncodeFlowTable(t *FlowTable) []byte {
	out := make([]byte, flowTableHeader+flowRecordLen*len(t.flows)+flowTableTrailer)
	copy(out, flowTableMagic)
	out[len(flowTableMagic)] = flowTableVersion
	binary.LittleEndian.PutUint32(out[len(flowTableMagic)+1:], uint32(len(t.flows)))
	rec := out[flowTableHeader:]
	for _, k := range t.flows {
		putFlowRecord(rec, k)
		rec = rec[flowRecordLen:]
	}
	binary.LittleEndian.PutUint32(rec, crc32.Checksum(out[:len(out)-flowTableTrailer], castagnoli))
	return out
}

// DecodeFlowTable parses a flow-table file into a flow-only view, rebuilding
// the two postings with the sort Finish uses. Anything but an intact file of
// a known version is rejected with an error wrapping ErrFlowTable, so a view
// that decodes answers exactly as the index it was encoded from. The view
// owns its storage (data is not retained).
func DecodeFlowTable(data []byte) (*FlowTable, error) {
	if len(data) < flowTableHeader+flowTableTrailer || string(data[:len(flowTableMagic)]) != flowTableMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrFlowTable)
	}
	if v := data[len(flowTableMagic)]; v != flowTableVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrFlowTable, v)
	}
	n := binary.LittleEndian.Uint32(data[len(flowTableMagic)+1:])
	if want := int64(flowTableHeader) + flowRecordLen*int64(n) + flowTableTrailer; int64(len(data)) != want {
		return nil, fmt.Errorf("%w: %d bytes for %d flows, want %d", ErrFlowTable, len(data), n, want)
	}
	body := data[:len(data)-flowTableTrailer]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(data[len(body):]); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, file says %08x", ErrFlowTable, got, want)
	}
	nf := int(n)
	t := &FlowTable{flows: make([]FlowKey, nf)}
	rec := body[flowTableHeader:]
	for fi := range t.flows {
		t.flows[fi] = flowRecord(rec)
		if fi > 0 && flowCompare(t.flows[fi-1], t.flows[fi]) >= 0 {
			return nil, fmt.Errorf("%w: flow %d not above flow %d", ErrFlowTable, fi, fi-1)
		}
		rec = rec[flowRecordLen:]
	}
	post := make([]int32, 2*nf)
	t.setPostings(post[:nf:nf], post[nf:], make([]uint64, 2*nf))
	return t, nil
}
