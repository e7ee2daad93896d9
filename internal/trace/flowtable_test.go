package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mawilab/internal/trace"
)

// candidateIDs walks a table's candidates for a filter.
func candidateIDs(ft *trace.FlowTable, f trace.Filter) []int {
	c := ft.CandidateFlows(f)
	ids := make([]int, c.Len())
	for i := range ids {
		ids[i] = c.At(i)
	}
	return ids
}

// checkFlowTableRoundTrip encodes ix's flow table, decodes it, and requires
// the view to answer as ix does — Flows, Flow, FlowID, and CandidateFlows for
// every filter shape TestIndexCandidateFlows uses — and to re-encode to the
// same bytes.
func checkFlowTableRoundTrip(t *testing.T, name string, ix *trace.Index) {
	t.Helper()
	data := trace.EncodeFlowTable(&ix.FlowTable)
	if want := 13*ix.Flows() + 13; len(data) != want {
		t.Fatalf("%s: %d bytes for %d flows, want %d", name, len(data), ix.Flows(), want)
	}
	view, err := trace.DecodeFlowTable(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if again := trace.EncodeFlowTable(view); !bytes.Equal(again, data) {
		t.Fatalf("%s: re-encoding the view changed the bytes", name)
	}
	if view.Flows() != ix.Flows() {
		t.Fatalf("%s: view has %d flows, index %d", name, view.Flows(), ix.Flows())
	}
	for fi := 0; fi < ix.Flows(); fi++ {
		k := ix.Flow(fi)
		if view.Flow(fi) != k {
			t.Fatalf("%s: flow %d = %v, index has %v", name, fi, view.Flow(fi), k)
		}
		if got, ok := view.FlowID(k); !ok || got != fi {
			t.Fatalf("%s: FlowID(%v) = %d %v, want %d", name, k, got, ok, fi)
		}
	}
	absent := trace.FlowKey{Src: trace.MakeIPv4(1, 2, 3, 4), Dst: trace.MakeIPv4(1, 2, 3, 4)}
	gi, gok := view.FlowID(absent)
	if wi, wok := ix.FlowID(absent); gi != wi || gok != wok {
		t.Fatalf("%s: FlowID of an absent key = %d %v, index says %d %v", name, gi, gok, wi, wok)
	}

	filters := []trace.Filter{
		trace.NewFilter(),
		trace.NewFilter().WithSrcPort(1030).WithProto(trace.TCP),
		trace.NewFilter().WithSrc(trace.MakeIPv4(1, 2, 3, 4)),
		trace.NewFilter().WithDst(trace.MakeIPv4(1, 2, 3, 4)),
		trace.NewFilter().WithDstPort(7),
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200 && ix.Flows() > 0; i++ {
		k := ix.Flow(rng.Intn(ix.Flows()))
		filters = append(filters,
			trace.NewFilter().WithSrc(k.Src),
			trace.NewFilter().WithDst(k.Dst),
			trace.NewFilter().WithDstPort(k.DstPort),
			trace.NewFilter().WithSrc(k.Src).WithDst(k.Dst).WithDstPort(k.DstPort),
			trace.NewFilter().WithSrc(k.Src).WithDstPort(7),
		)
	}
	for _, f := range filters {
		if got, want := candidateIDs(view, f), candidateIDs(&ix.FlowTable, f); !slices.Equal(got, want) {
			t.Fatalf("%s: filter %v: view has %d candidates, index %d", name, f, len(got), len(want))
		}
	}
}

// TestFlowTableRoundTrip: the file form loses nothing a flow query reads, on
// the three fixture days, an empty index and a single flow.
func TestFlowTableRoundTrip(t *testing.T) {
	for _, tr := range fixtureDays() {
		ix := trace.NewIndex(tr)
		if ix.Flows() < 1000 {
			t.Fatalf("%s: only %d flows", tr.Name, ix.Flows())
		}
		checkFlowTableRoundTrip(t, tr.Name, ix)
	}
	checkFlowTableRoundTrip(t, "empty", trace.NewIndex(&trace.Trace{}))
	one := trace.Packet{Src: trace.MakeIPv4(10, 0, 0, 1), Dst: trace.MakeIPv4(10, 0, 0, 2), SrcPort: 1024, DstPort: 80, Len: 40, Proto: trace.TCP}
	checkFlowTableRoundTrip(t, "single flow", trace.NewIndex(&trace.Trace{Packets: []trace.Packet{one, one, one}}))
}

// TestFlowTableCloneOutlivesRelease: the copy a reader takes of a pooled
// index's flow table is untouched by the Release and by the next build into
// the recycled arena.
func TestFlowTableCloneOutlivesRelease(t *testing.T) {
	build := func(seed byte) *trace.Index {
		b := trace.NewIndexBuilder()
		for i := 0; i < 600; i++ {
			p := trace.Packet{TS: int64(i), Src: trace.MakeIPv4(10, seed, byte(i%7), byte(i%31)), Dst: trace.MakeIPv4(172, 16, seed, byte(i%13)), DstPort: uint16(80 + i%5), Len: 40, Proto: trace.UDP}
			if err := b.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		return b.Finish()
	}
	ix := build(1)
	want := trace.EncodeFlowTable(&ix.FlowTable)
	view := ix.FlowTable.Clone()
	ix.Release()
	other := build(2) // recycles the arena
	defer other.Release()
	if got := trace.EncodeFlowTable(view); !bytes.Equal(got, want) {
		t.Fatal("the cloned flow table changed after Release and a rebuild")
	}
	f := trace.NewFilter().WithDst(view.Flow(0).Dst)
	for _, fi := range candidateIDs(view, f) {
		if view.Flow(fi).Dst != *f.Dst {
			t.Fatalf("clone's destination posting names flow %d, which has another destination", fi)
		}
	}
}

// reseal rewrites a flow-table file's trailer to match its bytes, so a
// deliberately damaged field is the only thing wrong with it.
func reseal(data []byte) []byte {
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return data
}

// TestDecodeFlowTableRejects: one case per reason a file is refused, each
// otherwise intact, all matching ErrFlowTable.
func TestDecodeFlowTableRejects(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 5; i++ {
		tr.Append(trace.Packet{TS: int64(i), Src: trace.MakeIPv4(10, 0, 0, byte(i)), Dst: trace.MakeIPv4(10, 0, 1, byte(9-i)), SrcPort: 1024, DstPort: uint16(80 + i), Len: 40, Proto: trace.TCP})
	}
	ix := trace.NewIndex(tr)
	valid := func() []byte { return trace.EncodeFlowTable(&ix.FlowTable) }
	if _, err := trace.DecodeFlowTable(valid()); err != nil {
		t.Fatal(err)
	}
	const header, record = 9, 13
	swapped := valid()
	a, b := swapped[header:header+record], swapped[header+record:header+2*record]
	tmp := slices.Clone(a)
	copy(a, b)
	copy(b, tmp)
	repeated := valid()
	copy(repeated[header+record:header+2*record], repeated[header:header+record])
	version := valid()
	version[4] = 2
	count := valid()
	count[5]++
	flipped := valid()
	flipped[header+3*record+2] ^= 0x10
	magic := valid()
	magic[0] = 'm'

	for _, tc := range []struct {
		name   string
		data   []byte
		reason string
	}{
		{"empty", nil, "bad magic"},
		{"shorter than a header and trailer", valid()[:12], "bad magic"},
		{"bad magic", reseal(magic), "bad magic"},
		{"unknown version", reseal(version), "unknown version 2"},
		{"count above the records", reseal(count), "for 6 flows"},
		{"truncated by one record", valid()[:len(valid())-record], "for 5 flows"},
		{"one trailing byte", append(valid(), 0), "for 5 flows"},
		{"bit flip in a record", flipped, "checksum"},
		{"bit flip in the trailer", func() []byte { d := valid(); d[len(d)-1] ^= 1; return d }(), "checksum"},
		{"two records swapped", reseal(swapped), "flow 1 not above flow 0"},
		{"a record repeated", reseal(repeated), "flow 1 not above flow 0"},
	} {
		ft, err := trace.DecodeFlowTable(tc.data)
		if err == nil || ft != nil {
			t.Errorf("%s: decoded (%v, %v), want a rejection", tc.name, ft, err)
			continue
		}
		if !errors.Is(err, trace.ErrFlowTable) {
			t.Errorf("%s: error %v does not match ErrFlowTable", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: error %q does not name the reason %q", tc.name, err, tc.reason)
		}
	}
}
