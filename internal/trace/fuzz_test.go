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

// FuzzTimeAxis checks the time axis over arbitrary sorted packets and
// widths: NewTimeAxis fails exactly when the width is not positive and finite,
// the packets spread from the first one's bin over more than maxTimeBins
// bins, or the count from 0 s does not fit an int32; otherwise Bins is
// ceil(Span/Width), Bin is non-decreasing over the packets and stays in
// [0, Bins), and every packet lies in its bin's Interval — except one the
// clamp moved into the last bin, which must sit on that bin's end,
// Bins·Width. Bin divides and Interval multiplies, so at a width not exact in
// binary (0.34 s) a packet within an ulp of an edge may fall on its other
// side; the checks allow two ulps, far below the timestamps' microsecond.
func FuzzTimeAxis(f *testing.F) {
	edge := fuzzBytes([]Packet{{TS: 0}, {TS: 1_500_000}, {TS: 2_999_999}, {TS: 3_000_000}})
	f.Add([]byte{}, 1.0)
	f.Add(edge, 1.0)
	f.Add(edge, 0.5)
	f.Add(edge, 0.1)
	f.Add(edge, 0.0)
	f.Add(edge, -2.0)
	f.Add(edge, 1e-300)
	f.Add(fuzzBytes(indexTestTrace(3, 40).Packets), 0.3)
	f.Add(fuzzBytes([]Packet{{TS: 0}, {TS: 20_723_000_000}}), 0.34)               // 20723 s bins below its interval's end
	f.Add(fuzzBytes([]Packet{{TS: 144_000_000_000}, {TS: 144_015_000_000}}), 0.5) // a 15 s segment 40 h in
	f.Fuzz(func(t *testing.T, data []byte, width float64) {
		tr := &Trace{Packets: fuzzPackets(data)}
		tr.Sort()
		ix := NewIndex(tr)
		ax, err := NewTimeAxis(ix, width)
		bins, used := math.Ceil(ix.Duration()/width), 0.0
		if ix.Len() > 0 {
			used = bins - math.Floor(ix.Seconds[0]/width)
		}
		valid := width > 0 && !math.IsInf(width, 1) && used <= maxTimeBins && bins < math.MaxInt32
		if (err == nil) != valid {
			t.Fatalf("width %v over %v s: error %v, want one: %v", width, ix.Duration(), err, !valid)
		}
		if err != nil {
			return
		}
		if ax.Width != width || ax.Span != ix.Duration() || float64(ax.Bins) != bins {
			t.Fatalf("width %v over %v s: axis %+v", width, ix.Duration(), ax)
		}
		if ax.Bins == 0 {
			return // a zero span: every packet at 0 s, nothing to bin
		}
		prev := 0
		for _, sec := range ix.Seconds {
			b := ax.Bin(sec)
			if b < prev || b >= ax.Bins {
				t.Fatalf("width %v: Bin(%v) = %d after %d, want in [%d, %d)", width, sec, b, prev, prev, ax.Bins)
			}
			prev = b
			slack := 2 * (math.Nextafter(sec, math.Inf(1)) - sec)
			from, to := ax.Interval(b, b)
			switch clamped := int(sec/width) >= ax.Bins; {
			case clamped && math.Abs(sec-to) > slack:
				t.Fatalf("width %v: %v s clamped into bin %d, not on its end %v", width, sec, b, to)
			case !clamped && (sec < from-slack || sec >= to+slack):
				t.Fatalf("width %v: %v s in bin %d, outside its interval [%v, %v)", width, sec, b, from, to)
			}
		}
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
