package pcap

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/iotest"
	"time"

	"mawilab/internal/mawigen"
	"mawilab/internal/trace"
)

// pcapBytes encodes the packets as a pcap stream.
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
func checkDecodeEquivalence(t testing.TB, data []byte) {
	ref, refErr := ReadTrace(bytes.NewReader(data))
	ix, err := DecodeIndex(bytes.NewReader(data))
	if refErr != nil {
		if err == nil {
			t.Fatalf("reference rejected the stream (%v) but DecodeIndex accepted it", refErr)
		}
		return
	}
	if err != nil {
		if errors.Is(err, trace.ErrUnsorted) && !ref.Sorted() {
			return
		}
		t.Fatalf("reference accepted the stream but DecodeIndex failed: %v", err)
	}
	defer ix.Release()
	want := trace.NewIndex(ref)
	if !trace.EqualIndexes(ix, want) {
		t.Fatalf("streamed index differs from the materialized one (%d packets)", ref.Len())
	}
	if got := ix.Digest(); got != ref.Digest() {
		t.Fatalf("digest mismatch: fused %s, trace %s", got, ref.Digest())
	}
	// A reader that is not memory takes DecodeIndex's buffered path, here
	// fed one byte per Read.
	buffered, err := DecodeIndex(iotest.OneByteReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatalf("buffered decode failed where the direct one succeeded: %v", err)
	}
	defer buffered.Release()
	if !trace.EqualIndexes(buffered, want) {
		t.Fatalf("buffered decode differs from the materialized index (%d packets)", ref.Len())
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

// TestWriteIndexMatchesWriteTrace: encoding an index must produce the exact
// bytes of encoding the trace it was built from.
func TestWriteIndexMatchesWriteTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tr := &trace.Trace{}
	for i := 0; i < 500; i++ {
		tr.Append(randomPacket(rng, i))
	}
	tr.Sort()
	want := pcapBytes(t, tr.Packets)
	var got bytes.Buffer
	if err := WriteIndex(&got, trace.NewIndex(tr)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("WriteIndex bytes differ from WriteTrace bytes")
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
	valid := pcapBytes(f, sorted.Packets)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:globalHeaderLen+recordHeaderLen/2])
	f.Add([]byte{})
	// Unsorted but individually valid records.
	f.Add(pcapBytes(f, []trace.Packet{
		{TS: 9_000_000, Proto: trace.ICMP, Len: ipv4HeaderLen + icmpHeaderLen},
		{TS: 1_000_000, Proto: trace.ICMP, Len: ipv4HeaderLen + icmpHeaderLen},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeEquivalence(t, data)
	})
}

// TestEncodedLenMatchesWriteIndex: EncodedLen is the byte count WriteIndex
// produces, on three generated days — every protocol, header-only and
// full-size packets — on packets shorter than their own headers and at the
// 16-bit length limit, and on the empty index.
func TestEncodedLenMatchesWriteIndex(t *testing.T) {
	archive := mawigen.NewArchive(7)
	ixs := []*trace.Index{
		trace.NewIndex(&trace.Trace{}),
		trace.NewIndex(&trace.Trace{Packets: []trace.Packet{
			{TS: 1, Proto: trace.TCP, Len: 0},
			{TS: 2, Proto: trace.UDP, Len: 27},
			{TS: 3, Proto: trace.ICMP, Len: 0xffff},
			{TS: 4, Proto: trace.Proto(47), Len: 19},
		}}),
	}
	for _, date := range []string{"2003-02-01", "2004-05-10", "2008-11-03"} {
		day, err := time.Parse("2006-01-02", date)
		if err != nil {
			t.Fatal(err)
		}
		ixs = append(ixs, trace.NewIndex(archive.Day(day).Trace))
	}
	for i, ix := range ixs {
		var buf bytes.Buffer
		if err := WriteIndex(&buf, ix); err != nil {
			t.Fatal(err)
		}
		if got := EncodedLen(ix); got != buf.Len() {
			t.Errorf("index %d (%d packets): EncodedLen = %d, WriteIndex wrote %d bytes", i, ix.Len(), got, buf.Len())
		}
	}
}
