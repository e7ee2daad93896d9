package mawigen

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"mawilab/internal/heuristics"
	"mawilab/internal/trace"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(42)
	cfg.Anomalies = []Spec{{Kind: KindPortScan, Start: 10, Duration: 10, Rate: 50}}
	a := Generate(cfg)
	b := Generate(cfg)
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Trace.Len(), b.Trace.Len())
	}
	for i := range a.Trace.Packets {
		if a.Trace.Packets[i] != b.Trace.Packets[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
	if len(a.Truth) != len(b.Truth) {
		t.Fatal("truth lengths differ")
	}
}

func TestGenerateBackgroundProperties(t *testing.T) {
	res := Generate(DefaultConfig(7))
	tr := res.Trace
	if !slices.IsSortedFunc(tr.Packets, func(a, b trace.Packet) int { return cmp.Compare(a.TS, b.TS) }) {
		t.Error("trace must be sorted")
	}
	// Rate within 40% of target.
	rate := float64(tr.Len()) / 60
	if rate < 240 || rate > 560 {
		t.Errorf("background rate = %.0f pps, want ≈400", rate)
	}
	perProto := map[trace.Proto]int{}
	for _, p := range tr.Packets {
		perProto[p.Proto]++
	}
	if tcpShare := float64(perProto[trace.TCP]) / float64(tr.Len()); tcpShare < 0.5 {
		t.Errorf("tcp share = %f, want majority", tcpShare)
	}
	if perProto[trace.UDP] == 0 || perProto[trace.ICMP] == 0 {
		t.Error("udp and icmp background expected")
	}
	if flows := trace.NewIndex(tr).Flows(); flows < 500 {
		t.Errorf("flows = %d, want many", flows)
	}
	if len(res.Truth) != 0 {
		t.Error("background-only config should have no truth events")
	}
	if d := tr.Duration(); d > 60 {
		t.Errorf("duration = %f, want ≤ 60", d)
	}
}

func TestInjectEachKind(t *testing.T) {
	kinds := []Kind{
		KindPortScan, KindPortSweep, KindSYNFlood, KindICMPFlood,
		KindNetBIOS, KindFlashCrowd, KindElephant, KindWormBlaster,
		KindWormSasser, KindSasserBackdoor,
	}
	for _, k := range kinds {
		cfg := DefaultConfig(11)
		cfg.BackgroundRate = 50
		cfg.Anomalies = []Spec{{Kind: k, Start: 5, Duration: 20, Rate: 60}}
		res := Generate(cfg)
		if len(res.Truth) != 1 {
			t.Fatalf("%v: truth events = %d", k, len(res.Truth))
		}
		ev := res.Truth[0]
		if ev.Kind != k {
			t.Errorf("%v: event kind = %v", k, ev.Kind)
		}
		if ev.Packets < 100 {
			t.Errorf("%v: only %d packets injected", k, ev.Packets)
		}
		if len(ev.Filters) == 0 {
			t.Errorf("%v: no ground-truth filters", k)
		}
		// The filters must actually match a healthy number of packets.
		matched := 0
		for i := range res.Trace.Packets {
			if ev.Matches(&res.Trace.Packets[i]) {
				matched++
			}
		}
		if matched < ev.Packets/2 {
			t.Errorf("%v: filters match %d packets, %d injected", k, matched, ev.Packets)
		}
		if ev.Description == "" {
			t.Errorf("%v: empty description", k)
		}
	}
}

func TestInjectedAttacksMatchHeuristics(t *testing.T) {
	// The injected attack families must trip the Table 1 heuristics when
	// inspected in isolation — this ties the generator to the paper's
	// evaluation machinery.
	cases := []struct {
		kind Kind
		cat  heuristics.Category
	}{
		{KindWormSasser, heuristics.CatSMB}, // scanning 445 dominates
		{KindSasserBackdoor, heuristics.CatSasser},
		{KindWormBlaster, heuristics.CatRPC},
		{KindPortScan, heuristics.CatSMB}, // default port 445
		{KindICMPFlood, heuristics.CatPing},
		{KindNetBIOS, heuristics.CatNetBIOS},
		{KindSYNFlood, heuristics.CatOtherAttack},
	}
	for _, c := range cases {
		cfg := DefaultConfig(13)
		cfg.BackgroundRate = 20
		cfg.Anomalies = []Spec{{Kind: c.kind, Start: 0, Duration: 30, Rate: 80}}
		res := Generate(cfg)
		ev := res.Truth[0]
		var idx []int
		for i := range res.Trace.Packets {
			if ev.Matches(&res.Trace.Packets[i]) {
				idx = append(idx, i)
			}
		}
		cls, cat := heuristics.ClassifyPackets(trace.NewIndex(res.Trace), idx)
		if cls != heuristics.Attack {
			t.Errorf("%v: classified %v/%v, want Attack", c.kind, cls, cat)
			continue
		}
		if cat != c.cat {
			t.Errorf("%v: category %v, want %v", c.kind, cat, c.cat)
		}
	}
}

func TestFlashCrowdIsNotAttack(t *testing.T) {
	cfg := DefaultConfig(17)
	cfg.BackgroundRate = 20
	cfg.Anomalies = []Spec{{Kind: KindFlashCrowd, Start: 0, Duration: 30, Rate: 100}}
	res := Generate(cfg)
	ev := res.Truth[0]
	var idx []int
	for i := range res.Trace.Packets {
		if ev.Matches(&res.Trace.Packets[i]) {
			idx = append(idx, i)
		}
	}
	cls, cat := heuristics.ClassifyPackets(trace.NewIndex(res.Trace), idx)
	if cls != heuristics.Special || cat != heuristics.CatHTTP {
		t.Errorf("flash crowd classified %v/%v, want Special/Http", cls, cat)
	}
}

func TestArchiveEras(t *testing.T) {
	a := NewArchive(1)
	d2003 := time.Date(2003, 1, 5, 0, 0, 0, 0, time.UTC)
	d2006 := time.Date(2006, 9, 5, 0, 0, 0, 0, time.UTC)
	d2008 := time.Date(2008, 1, 5, 0, 0, 0, 0, time.UTC)
	if a.RateMultiplier(d2003) != 1.0 || a.RateMultiplier(d2006) != 1.8 || a.RateMultiplier(d2008) != 2.5 {
		t.Error("era multipliers wrong")
	}
	if !(a.P2PShare(d2008) > a.P2PShare(d2003)) {
		t.Error("p2p share should grow after 2007")
	}
}

func TestArchiveWormEras(t *testing.T) {
	a := NewArchive(3)
	inBlaster := a.Day(time.Date(2003, 8, 20, 0, 0, 0, 0, time.UTC))
	hasBlaster := false
	for _, ev := range inBlaster.Truth {
		if ev.Kind == KindWormBlaster {
			hasBlaster = true
		}
	}
	if !hasBlaster {
		t.Error("2003-08-20 should carry Blaster events")
	}
	inSasser := a.Day(time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC))
	hasSasser := false
	for _, ev := range inSasser.Truth {
		if ev.Kind == KindWormSasser {
			hasSasser = true
		}
	}
	if !hasSasser {
		t.Error("2004-05-10 should carry Sasser events")
	}
	quiet := a.Day(time.Date(2002, 3, 3, 0, 0, 0, 0, time.UTC))
	for _, ev := range quiet.Truth {
		if ev.Kind == KindWormBlaster || ev.Kind == KindWormSasser {
			t.Error("2002 should have no worm events")
		}
	}
}

func TestArchiveDayDeterministic(t *testing.T) {
	a := NewArchive(5)
	d := time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)
	x := a.Day(d)
	y := a.Day(d)
	if x.Trace.Len() != y.Trace.Len() || len(x.Truth) != len(y.Truth) {
		t.Fatal("archive day not deterministic")
	}
	other := a.Day(d.AddDate(0, 0, 1))
	if other.Trace.Len() == x.Trace.Len() {
		// Extremely unlikely if seeds differ; lengths depend on draws.
		sameAll := other.Trace.Len() == x.Trace.Len()
		for i := 0; sameAll && i < x.Trace.Len(); i++ {
			if x.Trace.Packets[i] != other.Trace.Packets[i] {
				sameAll = false
			}
		}
		if sameAll {
			t.Error("different days generated identical traces")
		}
	}
}

func TestArchiveDayNamesAndWormTraffic(t *testing.T) {
	a := NewArchive(5)
	day := a.Day(time.Date(2004, 5, 10, 0, 0, 0, 0, time.UTC))
	if day.Trace.Name != "2004-05-10" {
		t.Errorf("trace name = %q", day.Trace.Name)
	}
	// Sasser era should show substantial 445/tcp traffic.
	port445 := 0
	for i := range day.Trace.Packets {
		if day.Trace.Packets[i].DstPort == 445 && day.Trace.Packets[i].Proto == trace.TCP {
			port445++
		}
	}
	if port445 < 100 {
		t.Errorf("sasser-era 445/tcp packets = %d, want many", port445)
	}
}

func TestCalendars(t *testing.T) {
	weekly := EverNDays(time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2001, 3, 1, 0, 0, 0, 0, time.UTC), 7)
	if len(weekly) != 9 {
		t.Errorf("weekly samples = %d, want 9", len(weekly))
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindPortScan; k <= KindWormSasser; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestGenerateDefaultsApplied(t *testing.T) {
	res := Generate(Config{Seed: 1}) // all defaults
	if res.Trace.Len() == 0 {
		t.Error("defaulted config generated nothing")
	}
	if res.Trace.Name == "" {
		t.Error("trace should have a default name")
	}
	named := Generate(Config{Seed: 1, Name: "custom", Duration: 10, BackgroundRate: 50})
	if named.Trace.Name != "custom" {
		t.Error("name override ignored")
	}
}

func TestSpecDefaults(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.BackgroundRate = 10
	// Zero duration/rate must be defaulted, not generate nothing.
	cfg.Anomalies = []Spec{{Kind: KindICMPFlood}}
	res := Generate(cfg)
	if len(res.Truth) != 1 || res.Truth[0].Packets == 0 {
		t.Error("spec defaults not applied")
	}
}
