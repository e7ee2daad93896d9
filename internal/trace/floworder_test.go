package trace_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"mawilab/internal/mawigen"
	"mawilab/internal/trace"
)

// firstSeenFlows returns a trace's distinct flow keys in first-seen order —
// the provisional ids IndexBuilder.Add hands out.
func firstSeenFlows(tr *trace.Trace) []trace.FlowKey {
	seen := make(map[trace.FlowKey]bool)
	var keys []trace.FlowKey
	for i := range tr.Packets {
		if k := tr.Packets[i].Flow(); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// fixtureDays generates the three fixture days the flow-table tests share,
// each trace named by its date.
func fixtureDays() []*trace.Trace {
	arch := mawigen.NewArchive(42)
	arch.Duration = 30
	arch.BaseRate = 200
	var days []*trace.Trace
	for _, date := range []time.Time{
		time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC),
		time.Date(2005, 3, 7, 0, 0, 0, 0, time.UTC),
		time.Date(2006, 10, 16, 0, 0, 0, 0, time.UTC),
	} {
		tr := arch.Day(date).Trace
		tr.Name = date.Format(time.DateOnly)
		days = append(days, tr)
	}
	return days
}

// TestFinishFlowOrderMatchesComparator pins Finish's comparison-free flow
// sort to the comparator sort it replaced: on the three fixture days, and on
// tables built to leave a single key byte varying — the last sort byte
// (Proto), the first (the top byte of Src) — or none at all.
func TestFinishFlowOrderMatchesComparator(t *testing.T) {
	check := func(name string, keys []trace.FlowKey) {
		t.Helper()
		if got, want := trace.FlowOrder(keys), trace.RefFlowOrder(keys); !slices.Equal(got, want) {
			t.Errorf("%s: radix flow order differs from the comparator sort over %d flows", name, len(keys))
		}
	}

	for _, tr := range fixtureDays() {
		keys := firstSeenFlows(tr)
		if len(keys) < 1000 {
			t.Fatalf("%s: only %d flows", tr.Name, len(keys))
		}
		check(tr.Name, keys)

		// The built index agrees: its table is the keys in that order.
		ix := trace.NewIndex(tr)
		for ci, pid := range trace.RefFlowOrder(keys) {
			if ix.Flow(ci) != keys[pid] {
				t.Fatalf("%s: flow table differs from the comparator order at %d", tr.Name, ci)
			}
		}
	}

	base := trace.FlowKey{Src: trace.MakeIPv4(10, 1, 2, 3), Dst: trace.MakeIPv4(192, 168, 4, 5), SrcPort: 1024, DstPort: 80, Proto: trace.TCP}
	rng := rand.New(rand.NewSource(9))
	var protoOnly, srcTopOnly []trace.FlowKey
	for _, v := range rng.Perm(256) {
		k := base
		k.Proto = trace.Proto(v)
		protoOnly = append(protoOnly, k)
		k = base
		k.Src = trace.MakeIPv4(byte(v), 1, 2, 3)
		srcTopOnly = append(srcTopOnly, k)
	}
	check("proto only", protoOnly)
	check("top byte of Src only", srcTopOnly)
	check("no flows", nil)
	check("one flow", []trace.FlowKey{base})

	// One host scanning every port of another: a single (Src, Dst) run of
	// 65 536 flows, ordered by radix passes of its own.
	var scan []trace.FlowKey
	for _, v := range rng.Perm(1 << 16) {
		k := base
		k.DstPort = uint16(v)
		scan = append(scan, k)
	}
	check("one (Src, Dst), every port", scan)

	// (Src, Dst) runs of every length from 1 to 300, shuffled: short runs
	// are ordered by insertion, long ones by radix passes.
	var runs []trace.FlowKey
	for n := 1; n <= 300; n++ {
		dst := trace.IPv4(rng.Uint32())
		for p := 0; p < n; p++ {
			runs = append(runs, trace.FlowKey{Src: trace.IPv4(n), Dst: dst, SrcPort: uint16(p), Proto: trace.TCP})
		}
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	check("runs of 1 to 300", runs)

	// Every one of the 13 key bytes varies.
	seen := make(map[trace.FlowKey]bool)
	var random []trace.FlowKey
	for len(random) < 20000 {
		k := trace.FlowKey{
			Src: trace.IPv4(rng.Uint32()), Dst: trace.IPv4(rng.Uint32()),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: trace.Proto(rng.Uint32()),
		}
		if rng.Intn(4) == 0 && len(random) > 0 {
			// Share a (Src, Dst) with an earlier flow, so runs occur too.
			prev := random[rng.Intn(len(random))]
			k.Src, k.Dst = prev.Src, prev.Dst
		}
		if !seen[k] {
			seen[k] = true
			random = append(random, k)
		}
	}
	check("all 13 bytes vary", random)

	// A single-flow trace: every key byte is constant, so the sort runs no
	// pass; the index is one flow holding every packet.
	single := &trace.Trace{}
	for i := 0; i < 500; i++ {
		single.Append(trace.Packet{TS: int64(i), Src: base.Src, Dst: base.Dst, SrcPort: base.SrcPort, DstPort: base.DstPort, Proto: base.Proto})
	}
	ix := trace.NewIndex(single)
	if ix.Flows() != 1 || ix.Flow(0) != base || len(ix.FlowPackets(0)) != 500 {
		t.Errorf("single-flow trace: %d flows, run of %d", ix.Flows(), len(ix.FlowPackets(0)))
	}
}

// refPosting is the posting the radix sort of the whole key<<32|id word
// gives: ids ordered by (key, id).
func refPosting(flows []trace.FlowKey, key func(trace.FlowKey) uint32) []int32 {
	words := make([]uint64, len(flows))
	for fi, k := range flows {
		words[fi] = uint64(key(k))<<32 | uint64(fi)
	}
	slices.Sort(words)
	ids := make([]int32, len(words))
	for i, w := range words {
		ids[i] = int32(uint32(w))
	}
	return ids
}

// TestPostingsMatchFullWordSort pins the postings, sorted on their key bytes
// alone, to the sort of the whole key<<32|id word they replaced: on the
// fixture days' flow tables and on tables built to take the small-slice path
// (under 256 flows), to have one key throughout, and to vary in every key
// byte.
func TestPostingsMatchFullWordSort(t *testing.T) {
	tables := map[string][]trace.FlowKey{}
	for _, tr := range fixtureDays() {
		ix := trace.NewIndex(tr)
		flows := make([]trace.FlowKey, ix.Flows())
		for fi := range flows {
			flows[fi] = ix.Flow(fi)
		}
		tables[tr.Name] = flows
	}
	rng := rand.New(rand.NewSource(11))
	random := func(n int, dst trace.IPv4, port uint16) []trace.FlowKey {
		flows := make([]trace.FlowKey, n)
		for i := range flows {
			flows[i] = trace.FlowKey{Src: trace.IPv4(i), Dst: dst, DstPort: port}
			if dst == 0 {
				flows[i].Dst = trace.IPv4(rng.Uint32())
			}
			if port == 0 {
				flows[i].DstPort = uint16(rng.Uint32())
			}
		}
		return flows
	}
	tables["empty"] = nil
	tables["one flow"] = random(1, 0, 0)
	tables["small"] = random(200, 0, 0)
	tables["every byte varies"] = random(20000, 0, 0)
	tables["one key"] = random(5000, trace.MakeIPv4(10, 0, 0, 1), 80)

	for name, flows := range tables {
		byDst, byDstPort := trace.Postings(flows)
		if want := refPosting(flows, func(k trace.FlowKey) uint32 { return uint32(k.Dst) }); !slices.Equal(byDst, want) {
			t.Errorf("%s: destination posting differs from the full-word sort", name)
		}
		if want := refPosting(flows, func(k trace.FlowKey) uint32 { return uint32(k.DstPort) }); !slices.Equal(byDstPort, want) {
			t.Errorf("%s: destination-port posting differs from the full-word sort", name)
		}
	}
}
