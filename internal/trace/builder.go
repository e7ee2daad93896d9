package trace

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"mawilab/internal/radix"
)

// ErrUnsorted rejects packets that violate the sorted trace model during a
// fused index build: a timestamp smaller than its predecessor's, or a
// negative timestamp. Streaming builders cannot re-sort — the columns are
// final the moment a packet is appended — so violations are errors, exactly
// as in SegmentWriter.Append. Match with errors.Is.
var ErrUnsorted = errors.New("trace: packets violate the sorted trace model")

// errFinished rejects use of a builder after Finish or Discard.
var errFinished = errors.New("trace: index builder already finished")

// Mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit mixer.
// It is the universal hash behind every sketch (internal/sketch) and the
// fused builder's flow table.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// flowHash mixes a flow key for the builder's open-addressing table. The
// hash only steers probe order, and the provisional ids the table hands out
// — in first-seen order under Add, in the appended index's flow order under
// AppendIndex — are canonicalized by sorting the distinct keys at Finish, so
// determinism depends on neither.
func flowHash(k FlowKey) uint64 {
	hi := uint64(uint32(k.Src))<<32 | uint64(uint32(k.Dst))
	lo := uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto)
	return Mix64(hi) ^ Mix64(lo+0x9e3779b97f4a7c15)
}

// indexArena is the reusable backing storage of one fused index build: the
// nine packet columns, the flow table and its construction scratch, and the
// two postings — with every buffer the three sorts in Finish move words
// through, so a pooled build sorts without touching the heap. Arenas cycle
// through arenaPool so a steady-state server decodes day after day into the
// same buffers — Index.Release returns them.
type indexArena struct {
	// Packet columns.
	ts      []int64
	seconds []float64
	src     []IPv4
	dst     []IPv4
	srcPort []uint16
	dstPort []uint16
	pktLen  []uint16
	proto   []Proto
	flags   []TCPFlags

	// Flow table and construction scratch.
	keys    []FlowKey  // by provisional id
	slots   []int32    // open-addressing table over keys, -1 empty
	flowSeq []int32    // per-packet provisional flow id
	remap   []int32    // AppendIndex: the appended index's flow id → provisional id
	words   []flowWord // the keys packed for the canonical sort, and its scratch half
	rank    []int32    // provisional id → canonical id
	counts  []int32    // per-provisional-id packet counts
	cursor  []int32    // per-canonical-id write cursor into flowPkts

	// Finished index storage.
	flows    []FlowKey
	flowOff  []int32
	flowPkts []int32
	flowOf   []int32

	// Postings: flow ids ordered by (Dst, id) and by (DstPort, id), and the
	// key<<32|id words both are sorted through (with the sort's scratch half).
	byDst     []int32
	byDstPort []int32
	sortKeys  []uint64
}

var arenaPool = sync.Pool{New: func() any { return new(indexArena) }}

// reset readies a pooled arena for the next build: every slice an Add appends
// to keeps its capacity at length zero (Finish resizes the rest).
func (a *indexArena) reset() {
	a.ts = a.ts[:0]
	a.seconds = a.seconds[:0]
	a.src = a.src[:0]
	a.dst = a.dst[:0]
	a.srcPort = a.srcPort[:0]
	a.dstPort = a.dstPort[:0]
	a.pktLen = a.pktLen[:0]
	a.proto = a.proto[:0]
	a.flags = a.flags[:0]
	a.keys = a.keys[:0]
	a.slots = a.slots[:0]
	a.flowSeq = a.flowSeq[:0]
}

// resize returns s grown (or shrunk) to length n, reusing capacity.
func resize[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	} else {
		*s = (*s)[:n]
	}
	return *s
}

// IndexBuilder streams packets straight into the columnar Index — the fused
// single-pass ingest path. Add appends one packet to the SoA columns and the
// incremental flow table; Finish canonicalizes flow order, lays out the
// packet runs, sorts the two postings and seals the Index — work
// proportional to the packets and flows, whatever span their timestamps
// cover. No intermediate []Packet is ever materialized, and a pooled builder
// (NewIndexBuilder) draws every buffer from a recycled arena, so the
// steady-state serving path allocates almost nothing per trace.
//
// IndexBuilder is the only code that constructs an Index: pcap.DecodeIndex
// feeds it records as it decodes them, SegmentWriter feeds it every appended
// packet, NewIndex/SealTrace feed it a materialized trace and WindowIndex
// appends the sealed segments of a window to it whole (AppendIndex). It is
// purely sequential, so the result is bitwise-independent of scheduling; the
// map-based two-pass build it replaced survives in index_test.go as the
// reference the differential tests and FuzzIndexBuilder pin it against.
//
// Packets must arrive in non-decreasing timestamp order with non-negative
// timestamps; Add rejects violations with ErrUnsorted. Abandon a partial
// build with Discard.
type IndexBuilder struct {
	a        *indexArena
	pooled   bool
	lastTS   int64
	finished bool
}

// NewIndexBuilder returns a pooled builder: its buffers come from the shared
// arena pool and return to it when the finished Index is Released. Callers
// that cannot bound the index's lifetime should leave Release uncalled — the
// buffers are then ordinarily garbage collected.
func NewIndexBuilder() *IndexBuilder {
	a := arenaPool.Get().(*indexArena)
	a.reset()
	return &IndexBuilder{a: a, pooled: true, lastTS: -1}
}

// newDetachedBuilder returns a builder whose finished index owns its buffers
// outright (Release is a no-op). Everything the engine builds itself — sealed
// segments, window indexes, NewIndex/SealTrace — is detached: those indexes
// flow to consumers of unknown lifetime, so recycling would be unsound. n is
// a capacity hint: feeds that know their packet count up front pass it so the
// per-packet columns are allocated once instead of grown by doubling (which
// allocates more bytes than the pre-sized map-based build did); SegmentWriter
// cannot know and passes 0.
func newDetachedBuilder(n int) *IndexBuilder {
	a := &indexArena{
		ts:      make([]int64, 0, n),
		seconds: make([]float64, 0, n),
		src:     make([]IPv4, 0, n),
		dst:     make([]IPv4, 0, n),
		srcPort: make([]uint16, 0, n),
		dstPort: make([]uint16, 0, n),
		pktLen:  make([]uint16, 0, n),
		proto:   make([]Proto, 0, n),
		flags:   make([]TCPFlags, 0, n),
		flowSeq: make([]int32, 0, n),
	}
	return &IndexBuilder{a: a, lastTS: -1}
}

// Add appends one packet to the index under construction.
func (b *IndexBuilder) Add(p Packet) error {
	if b.finished {
		return errFinished
	}
	if p.TS < 0 {
		return fmt.Errorf("%w: negative timestamp %d", ErrUnsorted, p.TS)
	}
	if p.TS < b.lastTS {
		return fmt.Errorf("%w: timestamp %d after %d", ErrUnsorted, p.TS, b.lastTS)
	}
	b.lastTS = p.TS
	a := b.a
	a.ts = append(a.ts, p.TS)
	a.seconds = append(a.seconds, p.Seconds())
	a.src = append(a.src, p.Src)
	a.dst = append(a.dst, p.Dst)
	a.srcPort = append(a.srcPort, p.SrcPort)
	a.dstPort = append(a.dstPort, p.DstPort)
	a.pktLen = append(a.pktLen, p.Len)
	a.proto = append(a.proto, p.Proto)
	a.flags = append(a.flags, p.Flags)
	a.flowSeq = append(a.flowSeq, b.flowID(p.Flow()))
	return nil
}

// AppendIndex appends every packet of a finished index, in order — the bulk
// form of Add over ix.PacketAt(0..Len-1), and what WindowIndex feeds a
// window's sealed segments through. The nine columns are copied whole and
// each of ix's flows is interned once; the per-packet flow ids go through
// that remap instead of one table probe per packet. ix's columns already
// satisfy the sorted trace model, so the only check left is the seam: ix must
// not start before the builder's last packet (ErrUnsorted).
func (b *IndexBuilder) AppendIndex(ix *Index) error {
	if b.finished {
		return errFinished
	}
	n := ix.Len()
	if n == 0 {
		return nil
	}
	if ix.TS[0] < b.lastTS {
		return fmt.Errorf("%w: timestamp %d after %d", ErrUnsorted, ix.TS[0], b.lastTS)
	}
	b.lastTS = ix.TS[n-1]
	a := b.a
	a.ts = append(a.ts, ix.TS...)
	a.seconds = append(a.seconds, ix.Seconds...)
	a.src = append(a.src, ix.Src...)
	a.dst = append(a.dst, ix.Dst...)
	a.srcPort = append(a.srcPort, ix.SrcPort...)
	a.dstPort = append(a.dstPort, ix.DstPort...)
	a.pktLen = append(a.pktLen, ix.PktLen...)
	a.proto = append(a.proto, ix.Proto...)
	a.flags = append(a.flags, ix.Flags...)
	pids := resize(&a.remap, len(ix.flows))
	for fi, k := range ix.flows {
		pids[fi] = b.flowID(k)
	}
	for _, fi := range ix.flowOf {
		a.flowSeq = append(a.flowSeq, pids[fi])
	}
	return nil
}

// flowID interns k in the open-addressing flow table, assigning provisional
// ids in first-seen order.
func (b *IndexBuilder) flowID(k FlowKey) int32 {
	a := b.a
	if len(a.keys)*4 >= len(a.slots)*3 {
		b.growSlots()
	}
	mask := uint64(len(a.slots) - 1)
	i := flowHash(k) & mask
	for {
		s := a.slots[i]
		if s < 0 {
			id := int32(len(a.keys))
			a.keys = append(a.keys, k)
			a.slots[i] = id
			return id
		}
		if a.keys[s] == k {
			return s
		}
		i = (i + 1) & mask
	}
}

// growSlots doubles the table (power of two, load factor <= 3/4) and
// rehashes the interned keys.
func (b *IndexBuilder) growSlots() {
	a := b.a
	n := len(a.slots) * 2
	if n < 512 {
		n = 512
	}
	a.slots = resize(&a.slots, n)
	for i := range a.slots {
		a.slots[i] = -1
	}
	mask := uint64(n - 1)
	for id, k := range a.keys {
		i := flowHash(k) & mask
		for a.slots[i] >= 0 {
			i = (i + 1) & mask
		}
		a.slots[i] = int32(id)
	}
}

// sortedPosting sorts the key<<32|id words — a radix sort over the bytes that
// vary, so a posting pays for the width of its keys and ids, not of the word —
// and writes the ids in that order into ids. words holds len(ids) keys in its
// first half; the second half is the sort's scratch.
func sortedPosting(ids []int32, words []uint64) {
	n := len(ids)
	for i, w := range radix.Sort(words[:n], words[n:]) {
		ids[i] = int32(uint32(w))
	}
}

// flowWord is a flow key packed for Finish's sort with the provisional id it
// rides with: w[1] = Src<<32|Dst and w[0] = SrcPort<<24|DstPort<<8|Proto, so
// the numeric order of (w[1], w[0]) is the canonical flow order.
type flowWord struct {
	w  [2]uint64
	id int32
}

// packFlow packs key k, interned as provisional id, into its sort words.
func packFlow(k FlowKey, id int32) flowWord {
	return flowWord{
		w: [2]uint64{
			uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto),
			uint64(k.Src)<<32 | uint64(k.Dst),
		},
		id: id,
	}
}

// sortFlowWords orders a canonically without comparing keys — a stable byte
// radix sort, least significant byte first, over the 13 key bytes — and
// returns the sorted records in a or in scratch (same length, not
// overlapping), whichever the last pass wrote. Bytes on which every key
// agrees (one OR/AND pre-pass finds them: the top bytes of one network's
// addresses, the protocol of an all-TCP segment) are skipped, so a single
// flow runs no pass at all. The keys are distinct, so any correct sort yields
// this order; RefFlowOrder in the tests is the comparator sort it replaced.
func sortFlowWords(a, scratch []flowWord) []flowWord {
	if len(a) == 0 {
		return a
	}
	or, and := a[0].w, a[0].w
	for i := range a {
		for j, w := range a[i].w {
			or[j] |= w
			and[j] &= w
		}
	}
	src, dst := a, scratch
	for j := range or {
		vary := or[j] ^ and[j]
		for shift := uint(0); vary>>shift != 0; shift += 8 {
			if vary>>shift&0xff == 0 {
				continue
			}
			var next [256]int32
			for i := range src {
				next[src[i].w[j]>>shift&0xff]++
			}
			pos := int32(0)
			for b, c := range next {
				next[b] = pos
				pos += c
			}
			for i := range src {
				b := src[i].w[j] >> shift & 0xff
				dst[next[b]] = src[i]
				next[b]++
			}
			src, dst = dst, src
		}
	}
	return src
}

// Discard abandons the build, recycling a pooled builder's arena. The
// builder rejects further use.
func (b *IndexBuilder) Discard() {
	if b.a == nil {
		return
	}
	if b.pooled {
		arenaPool.Put(b.a)
	}
	b.a = nil
	b.finished = true
}

// Finish seals the index: flows are canonicalized into the sorted table, the
// packet runs are laid out, the flow ids are sorted into the destination and
// destination-port postings, and the columns become immutable. All three
// sorts are byte radix sorts over packed words (sortFlowWords, radix.Sort)
// whose buffers and scratch live in the arena: no key is compared, and a
// pooled build allocates nothing here. The builder rejects further use. A
// pooled builder's Index holds its arena until Index.Release returns it for
// reuse.
func (b *IndexBuilder) Finish() *Index {
	a := b.a
	n := len(a.ts)
	nf := len(a.keys)

	// Canonical flow order: sort the packed keys, each carrying its
	// provisional id; rank maps provisional → canonical.
	words := resize(&a.words, 2*nf)
	for pid, k := range a.keys {
		words[pid] = packFlow(k, int32(pid))
	}
	order := sortFlowWords(words[:nf], words[nf:])
	rank := resize(&a.rank, nf)
	a.flows = a.flows[:0]
	for ci, fw := range order {
		rank[fw.id] = int32(ci)
		a.flows = append(a.flows, a.keys[fw.id])
	}

	// Packet runs: counting sort over the per-packet provisional ids. Each
	// flow's run fills in ascending packet order because the single fill
	// pass walks packets in order.
	counts := resize(&a.counts, nf)
	for i := range counts {
		counts[i] = 0
	}
	for _, pid := range a.flowSeq {
		counts[pid]++
	}
	flowOff := resize(&a.flowOff, nf+1)
	flowOff[0] = 0
	for ci, fw := range order {
		flowOff[ci+1] = flowOff[ci] + counts[fw.id]
	}
	cursor := resize(&a.cursor, nf)
	copy(cursor, flowOff[:nf])
	flowPkts := resize(&a.flowPkts, n)
	flowOf := resize(&a.flowOf, n)
	for i, pid := range a.flowSeq {
		ci := rank[pid]
		flowPkts[cursor[ci]] = int32(i)
		cursor[ci]++
		flowOf[i] = ci
	}

	ix := &Index{
		TS:        a.ts,
		Seconds:   a.seconds,
		Src:       a.src,
		Dst:       a.dst,
		SrcPort:   a.srcPort,
		DstPort:   a.dstPort,
		PktLen:    a.pktLen,
		Proto:     a.proto,
		Flags:     a.flags,
		FlowTable: FlowTable{flows: a.flows},
		flowOff:   flowOff,
		flowPkts:  flowPkts,
		flowOf:    flowOf,
	}
	// Postings: flow ids in (Dst, id) and (DstPort, id) order.
	ix.setPostings(resize(&a.byDst, nf), resize(&a.byDstPort, nf), resize(&a.sortKeys, 2*nf))
	if b.pooled {
		ix.arena = a
	}
	b.a = nil
	b.finished = true
	return ix
}

// Release returns a pooled index's buffers to the arena pool for the next
// build — columns, flow table, postings and sort scratch alike — and is a
// no-op on every detached index (NewIndex, SealTrace, sealed segments, window
// indexes). Only the owner may call it, and only once no other reference to
// the index (or any slice it exposed) remains: the index's slices are cleared
// to fail fast, but the recycled backing arrays will be overwritten by a
// later build. What must outlive the index is copied out first
// (FlowTable.Clone). The serving job path releases after the labeling is
// persisted.
func (ix *Index) Release() {
	a := ix.arena
	if a == nil {
		return
	}
	ix.arena = nil
	ix.TS, ix.Seconds = nil, nil
	ix.Src, ix.Dst = nil, nil
	ix.SrcPort, ix.DstPort, ix.PktLen = nil, nil, nil
	ix.Proto, ix.Flags = nil, nil
	ix.FlowTable = FlowTable{}
	ix.flowOff, ix.flowPkts, ix.flowOf = nil, nil, nil
	arenaPool.Put(a)
}

// EqualIndexes reports whether two indexes are structurally identical:
// same columns, canonical flow table, packet runs and postings. Nil and empty
// slices compare equal. It backs the differential tests that pin the builder
// to the map-based reference in index_test.go, the decode-streaming vs
// decode-materialized checks in internal/pcap, and the per-segment and
// per-window seal-vs-rebuild checks.
func EqualIndexes(a, b *Index) bool {
	if a.Len() != b.Len() || len(a.flows) != len(b.flows) {
		return false
	}
	for i := range a.TS {
		if a.TS[i] != b.TS[i] || a.Seconds[i] != b.Seconds[i] ||
			a.Src[i] != b.Src[i] || a.Dst[i] != b.Dst[i] ||
			a.SrcPort[i] != b.SrcPort[i] || a.DstPort[i] != b.DstPort[i] ||
			a.PktLen[i] != b.PktLen[i] || a.Proto[i] != b.Proto[i] ||
			a.Flags[i] != b.Flags[i] ||
			a.flowOf[i] != b.flowOf[i] || a.flowPkts[i] != b.flowPkts[i] {
			return false
		}
	}
	for i := range a.flows {
		if a.flows[i] != b.flows[i] || a.flowOff[i+1] != b.flowOff[i+1] {
			return false
		}
	}
	return slices.Equal(a.byDst, b.byDst) && slices.Equal(a.byDstPort, b.byDstPort)
}
