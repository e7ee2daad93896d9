package pcap

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"mawilab/internal/mawigen"
	"mawilab/internal/trace"
)

// pcapBytes encodes the packets, in their order, as this package writes a
// pcap stream: header-only (WriteTrace).
func pcapBytes(t testing.TB, packets []trace.Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, &trace.Trace{Packets: packets}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkDecodeEquivalence runs the streaming DecodeIndex and the materialized
// ReadTrace+NewIndex over the same byte stream and asserts they agree:
// decode-streaming ≡ decode-materialized. Both now end in the one
// IndexBuilder (internal/trace's FuzzIndexBuilder pins that to the map-based
// reference), so what this checks is the decoder feeding it. The one
// sanctioned divergence: a stream whose packets decode but arrive out of
// timestamp order is accepted by ReadTrace (which never checks) and rejected
// by DecodeIndex with trace.ErrUnsorted.
//
// Under both sits the one record reader, so the stream first goes through
// checkReaderEquivalence (skipping Next ≡ copying Next); an accepted index
// then goes through checkIndexRoundTrip (encode → decode).
func checkDecodeEquivalence(t testing.TB, data []byte) {
	checkReaderEquivalence(t, data)
	ref, refErr := ReadTrace(bytes.NewReader(data))
	ix, err := DecodeIndex(bytes.NewReader(data))
	if refErr != nil {
		if err == nil {
			t.Fatalf("reference rejected the stream (%v) but DecodeIndex accepted it", refErr)
		}
		return
	}
	checkOriglens(t, data)
	if err != nil {
		if errors.Is(err, trace.ErrUnsorted) && !slices.IsSortedFunc(ref.Packets, func(a, b trace.Packet) int { return cmp.Compare(a.TS, b.TS) }) {
			return
		}
		t.Fatalf("reference accepted the stream but DecodeIndex failed: %v", err)
	}
	defer ix.Release()
	want := trace.NewIndex(ref)
	if !trace.EqualIndexes(ix, want) {
		t.Fatalf("streamed index differs from the materialized one (%d packets)", ref.Len())
	}
	if got := ix.Digest(); got != want.Digest() {
		t.Fatalf("digest mismatch: fused %s, trace %s", got, want.Digest())
	}
	// The same bytes fed one per Read: the Reader's buffer refills mid-record
	// on every record.
	buffered, err := DecodeIndex(iotest.OneByteReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatalf("buffered decode failed where the direct one succeeded: %v", err)
	}
	defer buffered.Release()
	if !trace.EqualIndexes(buffered, want) {
		t.Fatalf("buffered decode differs from the materialized index (%d packets)", ref.Len())
	}
	checkIndexRoundTrip(t, ix)
}

// checkOriglens walks the records of a stream the reader accepted: each
// must keep the format's invariant origlen >= caplen, which is what holds
// the length of a packet whose IPv4 total length is 0 to at least its
// headers.
func checkOriglens(t testing.TB, data []byte) {
	t.Helper()
	r, err := newCopyingReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for r.readRecordHeader() == nil {
		caplen := r.uint32(r.hdrBuf[8:])
		if origlen := r.uint32(r.hdrBuf[12:]); origlen < caplen {
			t.Fatalf("accepted a record with origlen %d below its caplen %d", origlen, caplen)
		}
		if _, err := r.br.Discard(int(caplen)); err != nil {
			t.Fatal(err)
		}
	}
}

// zeroLengthRecord is one TCP packet whose IPv4 total length and record
// origlen are both 0. Decoding takes the length from origlen − 14, which
// used to wrap to a 65 522-byte packet.
func zeroLengthRecord(t testing.TB) []byte {
	data := pcapBytes(t, []trace.Packet{{Proto: trace.TCP, Len: 40}})
	binary.LittleEndian.PutUint32(data[globalHeaderLen+12:], 0)
	binary.BigEndian.PutUint16(data[globalHeaderLen+recordHeaderLen+etherHeaderLen+2:], 0)
	return data
}

// TestOriglenBelowCaplenRejected: a record that captured more bytes than
// were on the wire is malformed, and both ingest paths reject it instead of
// deriving a length from it. The same record with origlen equal to its
// caplen decodes to a packet of its headers' length.
func TestOriglenBelowCaplenRejected(t *testing.T) {
	data := zeroLengthRecord(t)
	if tr, err := ReadTrace(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "origlen 0 below caplen") {
		t.Errorf("ReadTrace = %v, %v; want the origlen named", tr, err)
	}
	if _, err := DecodeIndex(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "origlen 0 below caplen") {
		t.Errorf("DecodeIndex error = %v, want the origlen named", err)
	}
	caplen := binary.LittleEndian.Uint32(data[globalHeaderLen+8:])
	binary.LittleEndian.PutUint32(data[globalHeaderLen+12:], caplen)
	tr, err := ReadTrace(bytes.NewReader(data))
	if err != nil || tr.Len() != 1 || tr.Packets[0].Len != ipv4HeaderLen+tcpHeaderLen {
		t.Errorf("origlen = caplen: %+v, %v; want one %d-byte packet", tr, err, ipv4HeaderLen+tcpHeaderLen)
	}
}

// TestOrigLenPastInt32Decodes: origlen is a uint32, and a record whose
// origlen is 2³¹ or more decodes alike on every GOARCH. A 54-byte record with
// origlen 0x8000_0000 and IPv4 total length 0 is one packet of the clamped
// 65 535 bytes; read into an int, the origlen used to turn negative where
// int is 32 bits wide, and the record was refused as below its caplen.
func TestOrigLenPastInt32Decodes(t *testing.T) {
	data := zeroLengthRecord(t)
	if caplen := binary.LittleEndian.Uint32(data[globalHeaderLen+8:]); caplen != etherHeaderLen+ipv4HeaderLen+tcpHeaderLen {
		t.Fatalf("record captures %d bytes, want the 54 header bytes", caplen)
	}
	binary.LittleEndian.PutUint32(data[globalHeaderLen+12:], 0x8000_0000)
	tr, err := ReadTrace(bytes.NewReader(data))
	if err != nil || tr.Len() != 1 || tr.Packets[0].Len != 0xffff {
		t.Fatalf("ReadTrace = %+v, %v; want one 65535-byte packet", tr, err)
	}
	ix, err := DecodeIndex(bytes.NewReader(data))
	if err != nil || ix.Len() != 1 || ix.PktLen[0] != 0xffff {
		t.Fatalf("DecodeIndex = %v; want one 65535-byte packet", err)
	}
	ix.Release()
}

// checkIndexRoundTrip states what the stored form of an index guarantees.
// EncodeIndex(ix) is the bytes of the per-packet refWriter at the stripped
// snaplen, EncodedLen(ix) of them, at most 24 + 70 per packet. Decoding them
// gives back ix — EqualIndexes, same Digest — when ix is representable: it
// starts in its first second (the reader rebases to that boundary; true of
// every decoded index) and no packet is shorter than the headers the writer
// synthesizes for it (the format stores no smaller length; true of
// everything this package wrote). For any other ix the decoded index is
// representable, so a second round trip is the identity.
func checkIndexRoundTrip(t testing.TB, ix *trace.Index) {
	t.Helper()
	enc := EncodeIndex(ix)
	var want bytes.Buffer
	if err := refWriteIndex(&want, ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want.Bytes()) {
		t.Fatalf("EncodeIndex differs from the per-packet refWriter at snaplen %d (%d packets)", strippedSnaplen, ix.Len())
	}
	if n := EncodedLen(ix); n != len(enc) || n > globalHeaderLen+(recordHeaderLen+strippedSnaplen)*ix.Len() {
		t.Fatalf("EncodedLen = %d, encoded %d bytes, %d packets", n, len(enc), ix.Len())
	}
	back, err := DecodeIndex(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("decoding EncodeIndex's own output: %v", err)
	}
	defer back.Release()
	representable := ix.Len() == 0 || ix.TS[0] < 1e6
	for i, proto := range ix.Proto {
		_, minLen := headerDims(proto, 0)
		representable = representable && int(ix.PktLen[i]) >= minLen
	}
	if representable {
		if !trace.EqualIndexes(back, ix) || back.Digest() != ix.Digest() {
			t.Fatalf("encode → decode changed a representable index (%d packets)", ix.Len())
		}
		return
	}
	again, err := DecodeIndex(bytes.NewReader(EncodeIndex(back)))
	if err != nil {
		t.Fatalf("second round trip: %v", err)
	}
	defer again.Release()
	if !trace.EqualIndexes(again, back) || again.Digest() != back.Digest() {
		t.Fatalf("encode → decode is not idempotent (%d packets)", ix.Len())
	}
}

// TestDecodeIndexMatchesReference is the deterministic differential: random
// sorted traces of several sizes round-trip through pcap bytes into both
// paths.
func TestDecodeIndexMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 100, 3000} {
		rng := rand.New(rand.NewSource(int64(n)))
		tr := &trace.Trace{}
		for i := 0; i < n; i++ {
			tr.Append(randomPacket(rng, i))
		}
		tr.Sort()
		checkDecodeEquivalence(t, pcapBytes(t, tr.Packets))
		checkDecodeEquivalence(t, fullFrameBytes(t, tr.Packets))
	}
}

// TestDecodeIndexRejectsUnsorted pins the strictness divergence directly.
func TestDecodeIndexRejectsUnsorted(t *testing.T) {
	p := func(ts int64) trace.Packet {
		return trace.Packet{TS: ts, Proto: trace.UDP, Len: ipv4HeaderLen + udpHeaderLen}
	}
	data := pcapBytes(t, []trace.Packet{p(2_000_000), p(1_000_000), p(3_000_000)})
	if _, err := ReadTrace(bytes.NewReader(data)); err != nil {
		t.Fatalf("ReadTrace should accept unsorted streams: %v", err)
	}
	if _, err := DecodeIndex(bytes.NewReader(data)); !errors.Is(err, trace.ErrUnsorted) {
		t.Fatalf("DecodeIndex on unsorted stream: got %v, want ErrUnsorted", err)
	}
}

// fixtureIndexes are the inputs the encoder tests share: three generated
// days — every protocol, header-only and full-size packets — packets shorter
// than their own headers, at the 16-bit length limit and of protocols the
// writer synthesizes no transport header for, and the empty index.
func fixtureIndexes(t testing.TB) []*trace.Index {
	t.Helper()
	archive := mawigen.NewArchive(7)
	ixs := []*trace.Index{
		trace.NewIndex(&trace.Trace{}),
		trace.NewIndex(&trace.Trace{Packets: []trace.Packet{
			{TS: 1, Proto: trace.TCP, Len: 0},
			{TS: 2, Proto: trace.UDP, Len: 27, SrcPort: 53, DstPort: 1024},
			{TS: 3, Proto: trace.ICMP, Len: 0xffff, SrcPort: 3, DstPort: 1},
			{TS: 4, Proto: trace.Proto(47), Len: 19},
			{TS: 5, Proto: trace.Proto(50), Len: 1400, SrcPort: 7, DstPort: 9, Flags: 0x3f},
			{TS: 2_000_006, Proto: trace.TCP, Len: 39, Flags: 0x02},
		}}),
	}
	for _, date := range []string{"2003-02-01", "2004-05-10", "2008-11-03"} {
		day, err := time.Parse("2006-01-02", date)
		if err != nil {
			t.Fatal(err)
		}
		ixs = append(ixs, trace.NewIndex(archive.Day(day).Trace))
	}
	return ixs
}

// TestWriteIndexMatchesStrippedWriter: an index encodes, from its columns,
// to the exact bytes of the per-packet refWriter at the stripped snaplen over
// its rows — and decodes back (checkIndexRoundTrip). WriteIndex is one Write
// of those bytes.
func TestWriteIndexMatchesStrippedWriter(t *testing.T) {
	for i, ix := range fixtureIndexes(t) {
		checkIndexRoundTrip(t, ix)
		var got bytes.Buffer
		if err := WriteIndex(&got, ix); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), EncodeIndex(ix)) {
			t.Errorf("index %d: WriteIndex wrote other bytes than EncodeIndex returns", i)
		}
	}
}

// TestWriteIndexStripsPayload: what the format change is for. A generated
// day's index encodes to a fraction of the day's full-frame pcap, and the two
// files decode to the same index.
func TestWriteIndexStripsPayload(t *testing.T) {
	day := mawigen.NewArchive(7).Day(time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC)).Trace
	full := fullFrameBytes(t, day.Packets)
	ix, err := DecodeIndex(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Release()
	stripped := EncodeIndex(ix)
	if len(stripped)*4 > len(full) {
		t.Errorf("stripped encoding is %d bytes of a %d-byte capture; want under a quarter", len(stripped), len(full))
	}
	back, err := DecodeIndex(bytes.NewReader(stripped))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Release()
	if !trace.EqualIndexes(back, ix) || back.Digest() != trace.NewIndex(day).Digest() {
		t.Error("the stripped file does not decode to the upload's index and digest")
	}
}

// FuzzDecodeIndex feeds arbitrary byte streams — seeded with valid pcap
// encodings and their truncations — through both ingest paths and requires
// them to agree on accept/reject and, when both accept, on every index
// structure and the content digest.
func FuzzDecodeIndex(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	var ps []trace.Packet
	for i := 0; i < 40; i++ {
		ps = append(ps, randomPacket(rng, i))
	}
	sorted := &trace.Trace{Packets: ps}
	sorted.Sort()
	valid := fullFrameBytes(f, sorted.Packets)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:globalHeaderLen+recordHeaderLen/2])
	f.Add([]byte{})
	// Unsorted but individually valid records.
	f.Add(fullFrameBytes(f, []trace.Packet{
		{TS: 9_000_000, Proto: trace.ICMP, Len: ipv4HeaderLen + icmpHeaderLen},
		{TS: 1_000_000, Proto: trace.ICMP, Len: ipv4HeaderLen + icmpHeaderLen},
	}))
	// What this package writes and the daemon stores: header-only records.
	f.Add(EncodeIndex(trace.NewIndex(sorted)))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeEquivalence(t, data)
	})
}

// TestEncodedLenMatchesWriteIndex: EncodedLen is the byte count WriteIndex
// produces, and at most the global header plus 70 bytes per packet.
func TestEncodedLenMatchesWriteIndex(t *testing.T) {
	for i, ix := range fixtureIndexes(t) {
		var buf bytes.Buffer
		if err := WriteIndex(&buf, ix); err != nil {
			t.Fatal(err)
		}
		if got := EncodedLen(ix); got != buf.Len() {
			t.Errorf("index %d (%d packets): EncodedLen = %d, WriteIndex wrote %d bytes", i, ix.Len(), got, buf.Len())
		}
		if bound := 24 + 70*ix.Len(); buf.Len() > bound {
			t.Errorf("index %d (%d packets): %d bytes encoded, bound %d", i, ix.Len(), buf.Len(), bound)
		}
	}
}
