package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseIPv4 checks the parser's invariants on arbitrary input: it must
// never panic, every accepted input must round-trip through String back to
// the same address, and every accepted input must actually look like four
// in-range decimal octets (no silent truncation or sign smuggling).
func FuzzParseIPv4(f *testing.F) {
	for _, s := range []string{
		"0.0.0.0", "255.255.255.255", "203.178.148.19", "10.1.0.42",
		"1.2.3", "1.2.3.4.5", "...", "256.1.1.1", "-1.2.3.4", "+1.2.3.4",
		" 1.2.3.4", "1.2.3.4 ", "01.2.3.4", "1..3.4", "0x1.2.3.4",
		"1.2.3.1e2", "", "....", "9999999999.2.3.4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ip, err := ParseIPv4(s)
		if err != nil {
			return
		}
		// Accepted: the value must round-trip through the renderer.
		out := ip.String()
		back, err := ParseIPv4(out)
		if err != nil {
			t.Fatalf("ParseIPv4(%q) accepted, but its rendering %q is rejected: %v", s, out, err)
		}
		if back != ip {
			t.Fatalf("round trip lost the address: %q -> %v -> %q -> %v", s, ip, out, back)
		}
		// Accepted input must be 4 octets, each a valid base-10 uint8.
		parts := strings.Split(s, ".")
		if len(parts) != 4 {
			t.Fatalf("ParseIPv4(%q) accepted %d dot-fields", s, len(parts))
		}
		for _, p := range parts {
			if _, err := strconv.ParseUint(p, 10, 8); err != nil {
				t.Fatalf("ParseIPv4(%q) accepted octet %q: %v", s, p, err)
			}
		}
	})
}

// fuzzRecord is the byte length of one fuzzPackets record.
const fuzzRecord = 22

// fuzzPackets decodes arbitrary bytes into packets, 22 bytes per record.
// Timestamps are 48-bit microseconds — collisions, disorder, and spans of
// years between neighbours, which an index must take in its stride.
func fuzzPackets(data []byte) []Packet {
	ps := make([]Packet, 0, len(data)/fuzzRecord)
	for ; len(data) >= fuzzRecord; data = data[fuzzRecord:] {
		ps = append(ps, Packet{
			TS:      int64(binary.LittleEndian.Uint64(data[0:]) & (1<<48 - 1)),
			Src:     IPv4(binary.LittleEndian.Uint32(data[6:])),
			Dst:     IPv4(binary.LittleEndian.Uint32(data[10:])),
			SrcPort: binary.LittleEndian.Uint16(data[14:]),
			DstPort: binary.LittleEndian.Uint16(data[16:]),
			Len:     binary.LittleEndian.Uint16(data[18:]),
			Proto:   Proto(data[20]),
			Flags:   TCPFlags(data[21]),
		})
	}
	return ps
}

// fuzzBytes is fuzzPackets' inverse, for seeding.
func fuzzBytes(ps []Packet) []byte {
	var buf []byte
	for _, p := range ps {
		var r [fuzzRecord]byte
		binary.LittleEndian.PutUint64(r[0:], uint64(p.TS)) // top two bytes overwritten below
		binary.LittleEndian.PutUint32(r[6:], uint32(p.Src))
		binary.LittleEndian.PutUint32(r[10:], uint32(p.Dst))
		binary.LittleEndian.PutUint16(r[14:], p.SrcPort)
		binary.LittleEndian.PutUint16(r[16:], p.DstPort)
		binary.LittleEndian.PutUint16(r[18:], p.Len)
		r[20], r[21] = byte(p.Proto), byte(p.Flags)
		buf = append(buf, r[:]...)
	}
	return buf
}

// FuzzTraceSort pins Trace.Sort to the stable comparison sort over
// arbitrary rows: each 9-byte record is a mode byte and eight value bytes,
// and the mode picks the timestamp from the whole int64 range, from a few
// small signed values (ties and negatives), or next to math.MinInt64 or
// math.MaxInt64. Every row carries its arrival position, so a lost tie order
// shows in the other fields.
func FuzzTraceSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{1, 0xff, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0}, 10))
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ts []int64
		for ; len(data) >= 9; data = data[9:] {
			v := binary.LittleEndian.Uint64(data[1:])
			switch data[0] % 4 {
			case 0:
				ts = append(ts, int64(v))
			case 1:
				ts = append(ts, int64(int8(v)))
			case 2:
				ts = append(ts, math.MinInt64+int64(uint8(v)))
			default:
				ts = append(ts, math.MaxInt64-int64(uint8(v)))
			}
		}
		checkSort(t, tagged(ts...))
	})
}

// FuzzIndexBuilder is the differential that keeps the one production index
// builder honest now that the map-based build lives only in index_test.go:
// arbitrary bytes become packets; in arrival order the builder must accept
// them exactly when they satisfy the sorted trace model (ErrUnsorted
// otherwise); once sorted, the built index must be structurally identical to
// the reference and share its digest — which is also the trace's — and so
// must the index built by AppendIndex from the sorted trace cut at
// fuzz-chosen points.
func FuzzIndexBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, fuzzRecord))
	f.Add(make([]byte, 3*fuzzRecord)) // three packets of one flow at t=0
	buf := fuzzBytes(indexTestTrace(3, 40).Packets)
	f.Add(buf)
	f.Add(append(buf[10*fuzzRecord:20*fuzzRecord:20*fuzzRecord], buf[:10*fuzzRecord]...)) // out of order
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := &Trace{Packets: fuzzPackets(data)}
		_, err := SealTrace(context.Background(), tr)
		if sorted := sortedTS(tr); sorted != (err == nil) || (err != nil && !errors.Is(err, ErrUnsorted)) {
			t.Fatalf("arrival order sorted=%v, SealTrace error %v", sorted, err)
		}
		tr.Sort()
		ix := NewIndex(tr)
		ref := BuildIndex(tr)
		if !EqualIndexes(ix, ref) {
			t.Fatalf("builder differs from reference over %d packets", tr.Len())
		}
		if ix.Digest() != ref.Digest() || ix.Digest() != rowDigest(tr) {
			t.Fatal("digest mismatch between builder, reference and trace")
		}

		// The same bytes choose where to cut the sorted trace into pieces;
		// the pieces' indexes appended whole must build the same index.
		var cuts []int
		for i := 0; i < len(data) && i < 4; i++ {
			cuts = append(cuts, int(data[i])%(tr.Len()+1))
		}
		slices.Sort(cuts)
		got, err := appendIndexes(splitIndexes(tr, cuts), len(data)%2 == 1)
		if err != nil {
			t.Fatalf("AppendIndex over a sorted trace cut at %v: %v", cuts, err)
		}
		if !EqualIndexes(got, ref) {
			t.Fatalf("AppendIndex over %d packets cut at %v differs from reference", tr.Len(), cuts)
		}
		got.Release()
	})
}

// FuzzFlowTable checks the flow-table file both ways. Arbitrary bytes never
// panic the decoder, every rejection matches ErrFlowTable, and whatever
// decodes re-encodes to exactly the input — the format has one spelling per
// table. The same bytes, read as 13-byte keys, also make a valid file, of
// which the truncation at pos and the flip of bit pos must both be rejected.
func FuzzFlowTable(f *testing.F) {
	valid := EncodeFlowTable(&NewIndex(indexTestTrace(3, 40)).FlowTable)
	f.Add([]byte{}, uint32(0))
	f.Add(valid, uint32(0))
	f.Add(valid[:len(valid)-1], uint32(77))
	f.Add(EncodeFlowTable(&FlowTable{}), uint32(40))
	f.Fuzz(func(t *testing.T, data []byte, pos uint32) {
		ft, err := DecodeFlowTable(data)
		switch {
		case err != nil && (ft != nil || !errors.Is(err, ErrFlowTable)):
			t.Fatalf("rejection (%v, %v) is not a bare ErrFlowTable", ft, err)
		case err == nil && !bytes.Equal(EncodeFlowTable(ft), data):
			t.Fatalf("a %d-byte file decoded and re-encoded differently", len(data))
		}

		var keys []FlowKey
		for rec := data; len(rec) >= flowRecordLen; rec = rec[flowRecordLen:] {
			keys = append(keys, flowRecord(rec))
		}
		slices.SortFunc(keys, flowCompare)
		file := EncodeFlowTable(&FlowTable{flows: slices.Compact(keys)})
		view, err := DecodeFlowTable(file)
		if err != nil {
			t.Fatalf("a sorted table of %d keys did not decode: %v", len(keys), err)
		}
		for fi, k := range view.flows {
			if got, ok := view.FlowID(k); !ok || got != fi {
				t.Fatalf("FlowID(%v) = %d %v, want %d", k, got, ok, fi)
			}
		}
		cut := int(pos % uint32(len(file)))
		if _, err := DecodeFlowTable(file[:cut]); !errors.Is(err, ErrFlowTable) {
			t.Fatalf("the file cut to %d of %d bytes: %v, want ErrFlowTable", cut, len(file), err)
		}
		bit := int(pos % uint32(8*len(file)))
		file[bit/8] ^= 1 << (bit % 8)
		if _, err := DecodeFlowTable(file); !errors.Is(err, ErrFlowTable) {
			t.Fatalf("the file with bit %d flipped: %v, want ErrFlowTable", bit, err)
		}
	})
}
