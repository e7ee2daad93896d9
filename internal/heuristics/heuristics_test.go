package heuristics

import (
	"testing"

	"mawilab/internal/trace"
)

// mk builds n TCP packets to the given dst port with the given flags.
func mkTCP(n int, dport uint16, flags trace.TCPFlags) []trace.Packet {
	out := make([]trace.Packet, n)
	for i := range out {
		out[i] = trace.Packet{
			Src: trace.MakeIPv4(10, 0, 0, byte(i%250)), Dst: trace.MakeIPv4(10, 0, 1, 1),
			SrcPort: uint16(1024 + i), DstPort: dport, Proto: trace.TCP, Flags: flags, Len: 40,
		}
	}
	return out
}

// classify indexes the packets in the order given (one per microsecond) and
// folds all of them through the index columns, as the labeling tail does.
func classify(pkts []trace.Packet) (Class, Category) {
	tr := &trace.Trace{}
	idx := make([]int, len(pkts))
	for i, p := range pkts {
		p.TS = int64(i)
		tr.Append(p)
		idx[i] = i
	}
	return ClassifyPackets(trace.NewIndex(tr), idx)
}

func TestSasserPorts(t *testing.T) {
	for _, port := range []uint16{1023, 5554, 9898} {
		cls, cat := classify(mkTCP(20, port, trace.SYN))
		if cls != Attack || cat != CatSasser {
			t.Errorf("port %d: %v/%v, want Attack/Sasser", port, cls, cat)
		}
	}
}

func TestRPCAndSMB(t *testing.T) {
	if cls, cat := classify(mkTCP(20, 135, trace.SYN)); cls != Attack || cat != CatRPC {
		t.Errorf("135/tcp: %v/%v", cls, cat)
	}
	if cls, cat := classify(mkTCP(20, 445, trace.SYN)); cls != Attack || cat != CatSMB {
		t.Errorf("445/tcp: %v/%v", cls, cat)
	}
}

func TestPing(t *testing.T) {
	pkts := make([]trace.Packet, 30)
	for i := range pkts {
		pkts[i] = trace.Packet{
			Src: trace.MakeIPv4(1, 1, 1, 1), Dst: trace.MakeIPv4(2, 2, 2, 2),
			SrcPort: 8, DstPort: 0, // echo request
			Proto: trace.ICMP, Len: 64,
		}
	}
	if cls, cat := classify(pkts); cls != Attack || cat != CatPing {
		t.Errorf("icmp flood: %v/%v", cls, cat)
	}
	// A handful of ICMP packets is not a ping flood.
	if cls, _ := classify(pkts[:4]); cls == Attack {
		t.Error("4 ICMP packets should not be an attack")
	}
}

func TestOtherAttackSynFlood(t *testing.T) {
	// SYN flood on a random high port: >7 packets, SYN ratio 100%.
	cls, cat := classify(mkTCP(50, 31337, trace.SYN))
	if cls != Attack || cat != CatOtherAttack {
		t.Errorf("syn flood: %v/%v, want Attack/Other", cls, cat)
	}
	// RST storm likewise.
	cls, cat = classify(mkTCP(50, 31337, trace.RST))
	if cls != Attack || cat != CatOtherAttack {
		t.Errorf("rst storm: %v/%v", cls, cat)
	}
}

func TestOtherAttackHTTPSyn(t *testing.T) {
	// http traffic with ≥30% SYN is an attack even below the 50% flag bar:
	// build 60% ACK data + 40% SYN on port 80.
	pkts := append(mkTCP(12, 80, trace.SYN), mkTCP(18, 80, trace.ACK|trace.PSH)...)
	cls, cat := classify(pkts)
	if cls != Attack || cat != CatOtherAttack {
		t.Errorf("http syn: %v/%v, want Attack/Other", cls, cat)
	}
}

func TestNetBIOS(t *testing.T) {
	pkts := make([]trace.Packet, 20)
	for i := range pkts {
		pkts[i] = trace.Packet{
			Src: trace.MakeIPv4(10, 0, 0, 1), Dst: trace.MakeIPv4(10, 0, 1, byte(i)),
			SrcPort: uint16(1024 + i), DstPort: 137, Proto: trace.UDP, Len: 78,
		}
	}
	// NetBIOS probes over UDP: SYN rules don't apply, port 137 dominates.
	if cls, cat := classify(pkts); cls != Attack || cat != CatNetBIOS {
		t.Errorf("netbios: %v/%v", cls, cat)
	}
	if cls, cat := classify(mkTCP(20, 139, trace.ACK|trace.PSH)); cls != Attack || cat != CatNetBIOS {
		t.Errorf("139/tcp: %v/%v", cls, cat)
	}
}

func TestSpecialHTTP(t *testing.T) {
	// Normal http: mostly ACK/PSH, some SYN handshakes (below 30%).
	pkts := append(mkTCP(2, 80, trace.SYN), mkTCP(28, 80, trace.ACK|trace.PSH)...)
	cls, cat := classify(pkts)
	if cls != Special || cat != CatHTTP {
		t.Errorf("http: %v/%v, want Special/Http", cls, cat)
	}
	pkts = append(mkTCP(1, 8080, trace.SYN), mkTCP(20, 8080, trace.ACK)...)
	if cls, cat := classify(pkts); cls != Special || cat != CatHTTP {
		t.Errorf("8080: %v/%v", cls, cat)
	}
}

func TestSpecialWellKnown(t *testing.T) {
	// DNS over UDP.
	pkts := make([]trace.Packet, 20)
	for i := range pkts {
		pkts[i] = trace.Packet{
			Src: trace.MakeIPv4(10, 0, 0, 1), Dst: trace.MakeIPv4(10, 0, 1, 1),
			SrcPort: uint16(50000 + i), DstPort: 53, Proto: trace.UDP, Len: 80,
		}
	}
	if cls, cat := classify(pkts); cls != Special || cat != CatWellKnown {
		t.Errorf("dns: %v/%v", cls, cat)
	}
	// SSH with low SYN share.
	ssh := append(mkTCP(1, 22, trace.SYN), mkTCP(30, 22, trace.ACK|trace.PSH)...)
	if cls, cat := classify(ssh); cls != Special || cat != CatWellKnown {
		t.Errorf("ssh: %v/%v", cls, cat)
	}
}

func TestUnknown(t *testing.T) {
	// Mixed random-port low-flag traffic.
	pkts := make([]trace.Packet, 30)
	for i := range pkts {
		pkts[i] = trace.Packet{
			Src: trace.MakeIPv4(10, 0, 0, byte(i)), Dst: trace.MakeIPv4(10, 0, 1, byte(i)),
			SrcPort: uint16(20000 + i*13), DstPort: uint16(30000 + i*17),
			Proto: trace.TCP, Flags: trace.ACK, Len: 1400,
		}
	}
	if cls, cat := classify(pkts); cls != Unknown || cat != CatUnknown {
		t.Errorf("p2p-ish: %v/%v, want Unknown", cls, cat)
	}
}

// TestFlagRatioDominantFlag pins the Table 1 reading of "(SYN|RST|FIN)/
// pkts": the ratio is the *dominant* single flag's share, not the union —
// a mixed SYN/RST/FIN conversation must not sum its way past the 0.5
// attack threshold.
func TestFlagRatioDominantFlag(t *testing.T) {
	s := Summary{TCPPkts: 10, SYN: 3, RST: 4, FIN: 2}
	if got := s.flagRatio(); got != 0.4 {
		t.Errorf("flagRatio = %v, want 0.4 (dominant RST share, not the 0.9 union)", got)
	}
	// Half SYN, half FIN: a plausible benign handshake/teardown mix. The
	// union reading would score 1.0 and classify it as an attack; the
	// dominant-flag reading stays at exactly the 0.5 boundary.
	s = Summary{TCPPkts: 10, SYN: 5, FIN: 5}
	if got := s.flagRatio(); got != 0.5 {
		t.Errorf("flagRatio = %v, want 0.5", got)
	}
	if got := (&Summary{}).flagRatio(); got != 0 {
		t.Errorf("flagRatio on no TCP = %v, want 0", got)
	}
}

func TestEmptySummary(t *testing.T) {
	if cls, cat := ClassifyPackets(trace.NewIndex(&trace.Trace{}), nil); cls != Unknown || cat != CatUnknown {
		t.Errorf("empty: %v/%v", cls, cat)
	}
}

func TestPriorityOrder(t *testing.T) {
	// Sasser port traffic that is also SYN-heavy must label Sasser (row
	// order), not Other.
	cls, cat := classify(mkTCP(100, 5554, trace.SYN))
	if cls != Attack || cat != CatSasser {
		t.Errorf("priority: %v/%v, want Sasser first", cls, cat)
	}
}

func TestSummarizeFromTrace(t *testing.T) {
	tr := &trace.Trace{}
	for _, p := range mkTCP(10, 80, trace.ACK) {
		tr.Append(p)
	}
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	ix := trace.NewIndex(tr)
	cls, _ := ClassifyPackets(ix, idx)
	if cls != Special {
		t.Errorf("ClassifyPackets = %v, want Special", cls)
	}
	s := Summarize(ix, idx[:3])
	if s.Packets != 3 {
		t.Errorf("partial summarize packets = %d", s.Packets)
	}
}

func TestClassAndCategoryStrings(t *testing.T) {
	if Attack.String() != "Attack" || Special.String() != "Special" || Unknown.String() != "Unknown" {
		t.Error("class names wrong")
	}
	names := map[Category]string{
		CatSasser: "Sasser", CatRPC: "RPC", CatSMB: "SMB", CatPing: "Ping",
		CatOtherAttack: "Other", CatNetBIOS: "NetBIOS", CatHTTP: "Http",
		CatWellKnown: "dns-ftp-ssh", CatUnknown: "Unknown",
	}
	for cat, want := range names {
		if cat.String() != want {
			t.Errorf("%d.String() = %q, want %q", cat, cat.String(), want)
		}
	}
}

// table1Ports are the fourteen (port, protocol) pairs a Table 1 row reads.
var table1Ports = []struct {
	port  uint16
	proto trace.Proto
}{
	{20, trace.TCP}, {21, trace.TCP}, {22, trace.TCP}, {53, trace.TCP}, {80, trace.TCP},
	{135, trace.TCP}, {139, trace.TCP}, {445, trace.TCP}, {1023, trace.TCP}, {5554, trace.TCP},
	{8080, trace.TCP}, {9898, trace.TCP}, {53, trace.UDP}, {137, trace.UDP},
}

// TestPortSlotsAreExactlyTable1 walks every port of every protocol: each
// Table 1 pair has its own slot inside the tally, and every other pair has
// none — so no packet on an unlisted port can be counted for a listed one.
func TestPortSlotsAreExactlyTable1(t *testing.T) {
	want := make(map[[2]int]bool)
	seen := make(map[int]bool)
	for _, p := range table1Ports {
		slot := portSlot(p.port, p.proto)
		if slot < 0 || slot >= numPortSlots || seen[slot] {
			t.Errorf("%d/%v: slot %d out of range or shared", p.port, p.proto, slot)
		}
		seen[slot] = true
		want[[2]int{int(p.port), int(p.proto)}] = true
	}
	if len(table1Ports) != numPortSlots {
		t.Fatalf("%d Table 1 pairs, %d slots", len(table1Ports), numPortSlots)
	}
	for proto := 0; proto < 256; proto++ {
		for port := 0; port < 1<<16; port++ {
			if got := portSlot(uint16(port), trace.Proto(proto)) >= 0; got != want[[2]int{port, proto}] {
				t.Fatalf("portSlot(%d, %d) listed = %v, want %v", port, proto, got, !got)
			}
		}
	}
}

// TestTallyMatchesPortMap is the differential against the per-packet port map
// the tally replaced: over traffic that mixes Table 1 ports with their
// neighbours and with arbitrary ones, in both directions and protocols, every
// Table 1 pair holds the count the map held — and Classify reads nothing
// else about ports — while traffic wholly on unlisted ports stays Unknown.
func TestTallyMatchesPortMap(t *testing.T) {
	type portProto struct {
		port  uint16
		proto trace.Proto
	}
	var pkts []trace.Packet
	ref := make(map[portProto]int)
	add := func(sport, dport uint16, proto trace.Proto) {
		pkts = append(pkts, trace.Packet{
			Src: trace.MakeIPv4(10, 0, 0, 1), Dst: trace.MakeIPv4(10, 0, 1, 1),
			SrcPort: sport, DstPort: dport, Proto: proto, Flags: trace.ACK, Len: 40,
		})
		if proto == trace.TCP || proto == trace.UDP {
			ref[portProto{sport, proto}]++
			ref[portProto{dport, proto}]++
		}
	}
	for i, p := range table1Ports {
		for _, proto := range []trace.Proto{trace.TCP, trace.UDP, trace.ICMP} {
			for rep := 0; rep <= i%3; rep++ {
				add(p.port, uint16(40000+i), proto)
				add(uint16(40000+i), p.port, proto)
				add(p.port-1, p.port+1, proto)
				add(p.port, p.port, proto)
			}
		}
	}
	tr := &trace.Trace{}
	idx := make([]int, len(pkts))
	for i, p := range pkts {
		p.TS = int64(i)
		tr.Append(p)
		idx[i] = i
	}
	s := Summarize(trace.NewIndex(tr), idx)
	for _, p := range table1Ports {
		if got, want := s.ports[portSlot(p.port, p.proto)], ref[portProto{p.port, p.proto}]; got != want {
			t.Errorf("%d/%v: tally %d, port map %d", p.port, p.proto, got, want)
		}
	}

	// Every port one off a Table 1 port, and a few far from any: the map
	// answered zero for each listed pair and the rows fell through.
	pkts = pkts[:0]
	for _, p := range table1Ports {
		for _, q := range []uint16{p.port - 1, p.port + 1} {
			if portSlot(q, p.proto) < 0 { // 20, 21, 22 neighbour each other
				add(q, 31337, p.proto)
				add(6667, q, p.proto)
			}
		}
	}
	if cls, cat := classify(pkts); cls != Unknown || cat != CatUnknown {
		t.Errorf("traffic on unlisted ports only: %v/%v, want Unknown", cls, cat)
	}
}
