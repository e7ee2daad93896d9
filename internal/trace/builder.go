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

// packedFlow is a flow key as two words whose numeric order, hi first, is
// the canonical flow order (flowCompare): hi = Src<<32|Dst and
// lo = SrcPort<<24|DstPort<<8|Proto. The builder interns, compares and sorts
// keys in this form and unpacks each distinct one once, at Finish.
type packedFlow struct{ hi, lo uint64 }

// packFlow packs the key's fields. Callers pass them one by one: a FlowKey
// built field by field and then copied whole stalls the load that copies it.
func packFlow(src, dst IPv4, srcPort, dstPort uint16, proto Proto) packedFlow {
	return packedFlow{
		hi: uint64(src)<<32 | uint64(dst),
		lo: uint64(srcPort)<<24 | uint64(dstPort)<<8 | uint64(proto),
	}
}

// key unpacks the flow key.
func (f packedFlow) key() FlowKey {
	return FlowKey{
		Src:     IPv4(f.hi >> 32),
		Dst:     IPv4(f.hi),
		SrcPort: uint16(f.lo >> 24),
		DstPort: uint16(f.lo >> 8),
		Proto:   Proto(f.lo),
	}
}

// hash mixes the key for the builder's open-addressing table: hi·k₁ xor lo,
// times k₂, whose top bits pick the slot — two multiplies where two Mix64
// calls were. The hash only steers probe order, and the provisional ids the
// table hands out — in first-seen order under Add, in the appended index's
// flow order under AppendIndex — are canonicalized by sorting the distinct
// keys at Finish, so determinism depends on neither.
func (f packedFlow) hash() uint64 {
	return (f.hi*0x9e3779b97f4a7c15 ^ f.lo) * 0xbf58476d1ce4e5b9
}

// indexArena is the reusable backing storage of one fused index build: the
// eight packet columns, the flow table and its construction scratch, and the
// two postings — with every buffer the three sorts in Finish move words
// through, so a pooled build sorts without touching the heap. Arenas cycle
// through arenaPool so a steady-state server decodes day after day into the
// same buffers — Index.Release returns them.
type indexArena struct {
	// Packet columns.
	ts      []int64
	src     []IPv4
	dst     []IPv4
	srcPort []uint16
	dstPort []uint16
	pktLen  []uint16
	proto   []Proto
	flags   []TCPFlags

	// Flow table and construction scratch.
	keys    []packedFlow // by provisional id
	slots   []int32      // open-addressing table over keys, -1 empty
	flowSeq []int32      // per-packet provisional flow id
	remap   []int32      // AppendIndex: each appended index's flow ids → provisional ids, end to end
	words   []flowWord   // the keys packed for the canonical sort, and its scratch half
	rank    []int32      // provisional id → canonical id
	counts  []int32      // per-provisional-id packet counts
	cursor  []int32      // per-canonical-id write cursor into flowPkts

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
// to, and the flow table, keeps its capacity at length zero (Finish resizes
// the rest).
func (a *indexArena) reset() {
	a.ts = a.ts[:0]
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
	a.remap = a.remap[:0]
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
	shift    uint // 64 − log2(len(a.slots)): the hash's top bits index the table
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
	a.src = append(a.src, p.Src)
	a.dst = append(a.dst, p.Dst)
	a.srcPort = append(a.srcPort, p.SrcPort)
	a.dstPort = append(a.dstPort, p.DstPort)
	a.pktLen = append(a.pktLen, p.Len)
	a.proto = append(a.proto, p.Proto)
	a.flags = append(a.flags, p.Flags)
	a.flowSeq = append(a.flowSeq, b.flowID(packFlow(p.Src, p.Dst, p.SrcPort, p.DstPort, p.Proto)))
	return nil
}

// AppendIndex appends every packet of a finished index, in order — the bulk
// form of Add over ix.PacketAt(0..Len-1), and what WindowIndex feeds a
// window's sealed segments through. The eight columns are copied whole and
// each of ix's flows is interned once; the per-packet flow ids go through
// that remap instead of one table probe per packet. The remaps of successive
// calls are kept end to end, one provisional id per appended flow, so
// WindowIndex can translate them to canonical ids after Finish. ix's columns
// already satisfy the sorted trace model, so the only check left is the seam:
// ix must not start before the builder's last packet (ErrUnsorted).
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
	a.src = append(a.src, ix.Src...)
	a.dst = append(a.dst, ix.Dst...)
	a.srcPort = append(a.srcPort, ix.SrcPort...)
	a.dstPort = append(a.dstPort, ix.DstPort...)
	a.pktLen = append(a.pktLen, ix.PktLen...)
	a.proto = append(a.proto, ix.Proto...)
	a.flags = append(a.flags, ix.Flags...)
	base := len(a.remap)
	for _, k := range ix.flows {
		a.remap = append(a.remap, b.flowID(packFlow(k.Src, k.Dst, k.SrcPort, k.DstPort, k.Proto)))
	}
	pids := a.remap[base:]
	for _, fi := range ix.flowOf {
		a.flowSeq = append(a.flowSeq, pids[fi])
	}
	return nil
}

// flowID interns k in the open-addressing flow table, assigning provisional
// ids in first-seen order.
func (b *IndexBuilder) flowID(k packedFlow) int32 {
	a := b.a
	if len(a.keys)*4 >= len(a.slots)*3 {
		b.growSlots()
	}
	mask := uint64(len(a.slots) - 1)
	for i := k.hash() >> b.shift; ; i = (i + 1) & mask {
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
	}
}

// growSlots doubles the table (power of two, at least 512 slots, load factor
// <= 3/4) and re-inserts the interned keys.
func (b *IndexBuilder) growSlots() {
	a := b.a
	size, shift := 512, uint(64-9)
	if len(a.slots) > 0 {
		size, shift = 2*len(a.slots), b.shift-1
	}
	b.shift = shift
	a.slots = resize(&a.slots, size)
	for i := range a.slots {
		a.slots[i] = -1
	}
	mask := uint64(size - 1)
	for id, k := range a.keys {
		i := k.hash() >> shift
		for a.slots[i] >= 0 {
			i = (i + 1) & mask
		}
		a.slots[i] = int32(id)
	}
}

// sortedPosting sorts the key<<32|id words by their keys — ids enter
// ascending and every radix pass is stable, so each key's ids stay ascending
// and the id bytes need no pass (radix.SortAbove) — and writes the ids in that
// order into ids. words holds len(ids) keys in its first half; the second half
// is the sort's scratch.
func sortedPosting(ids []int32, words []uint64) {
	n := len(ids)
	for i, w := range radix.SortAbove(words[:n], words[n:], 32) {
		ids[i] = int32(uint32(w))
	}
}

// flowWord is one word of a packed flow key for Finish's sort — hi, or
// within a run of equal hi the key's lo — with the provisional id it rides
// with.
type flowWord struct {
	key uint64
	id  int32
}

// insertionRun is the longest run of equal (Src, Dst) that sortFlows orders
// by insertion; a longer one gets radix passes of its own.
const insertionRun = 64

// sortFlows returns the provisional ids of keys (distinct, indexed by
// provisional id) in canonical flow order, as the ids of a (len(keys) long)
// or of scratch (as long, not overlapping), whichever holds the result. It
// compares no keys: a radix sort of the (Src, Dst) words (sortWords), then
// each run of flows that share them ordered by the port/protocol word —
// short runs by insertion, long ones (one host scanning another's ports) by
// radix passes over that word in the free buffer. A table's flows share
// their (Src, Dst) a few at a time, so the whole table takes at most 8
// passes, not one per varying byte of all 13. RefFlowOrder in the tests is
// the comparator sort it replaced.
func sortFlows(keys []packedFlow, a, scratch []flowWord) []flowWord {
	for pid, k := range keys {
		a[pid] = flowWord{key: k.hi, id: int32(pid)}
	}
	order, free := sortWords(a, scratch)
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && order[j].key == order[i].key {
			j++
		}
		if run := order[i:j]; len(run) > 1 {
			for r := range run {
				run[r].key = keys[run[r].id].lo
			}
			if len(run) <= insertionRun {
				insertionSort(run)
			} else if sorted, _ := sortWords(run, free[:len(run)]); &sorted[0] != &run[0] {
				copy(run, sorted)
			}
		}
		i = j
	}
	return order
}

// insertionSort orders a short run by key.
func insertionSort(run []flowWord) {
	for i := 1; i < len(run); i++ {
		w, j := run[i], i
		for ; j > 0 && run[j-1].key > w.key; j-- {
			run[j] = run[j-1]
		}
		run[j] = w
	}
}

// sortWords orders a by key — a stable byte radix sort, least significant
// byte first — and returns the sorted records, in a or in scratch (same
// length, not overlapping) — whichever the last pass wrote — and the other of
// the two, free for other use. One pre-pass
// counts every byte of every key; a byte on which all keys agree (the top
// bytes of one network's addresses, the protocol of an all-TCP segment) fills
// one bucket and gets no pass, so a single key runs none.
func sortWords(a, scratch []flowWord) (sorted, spare []flowWord) {
	if len(a) < 2 {
		return a, scratch
	}
	var counts [8][256]int32
	for _, w := range a {
		k := w.key
		counts[0][k&0xff]++
		counts[1][k>>8&0xff]++
		counts[2][k>>16&0xff]++
		counts[3][k>>24&0xff]++
		counts[4][k>>32&0xff]++
		counts[5][k>>40&0xff]++
		counts[6][k>>48&0xff]++
		counts[7][k>>56]++
	}
	n := int32(len(a))
	src, dst := a, scratch
	for j := range counts {
		next := &counts[j]
		if next[src[0].key>>(8*j)&0xff] == n {
			continue
		}
		pos := int32(0)
		for b, c := range next {
			next[b] = pos
			pos += c
		}
		shift := uint(8 * j)
		for _, w := range src {
			b := w.key >> shift & 0xff
			dst[next[b]] = w
			next[b]++
		}
		src, dst = dst, src
	}
	return src, dst
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
// sorts are byte radix sorts over packed words (sortFlows, radix.SortAbove)
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
	order := sortFlows(a.keys, words[:nf], words[nf:])
	rank := resize(&a.rank, nf)
	a.flows = a.flows[:0]
	for ci, fw := range order {
		rank[fw.id] = int32(ci)
		a.flows = append(a.flows, a.keys[fw.id].key())
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
	ix.TS = nil
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
		if a.TS[i] != b.TS[i] ||
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
