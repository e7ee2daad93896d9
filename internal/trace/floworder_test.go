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
