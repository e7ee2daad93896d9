package mawigen

import (
	"fmt"
	"math/rand"

	"mawilab/internal/trace"
)

// inject emits the anomaly described by spec into tr and returns its ground
// truth event.
func inject(rng *rand.Rand, tr *trace.Trace, cfg Config, spec Spec) Event {
	spec, end := spec.resolve(cfg.Duration)
	ev := Event{Kind: spec.Kind, Start: spec.Start, End: end}
	n := int(spec.Rate * (end - spec.Start))
	if n <= 0 {
		return ev
	}
	switch spec.Kind {
	case KindPortScan:
		injectPortScan(rng, tr, &ev, n, 445)
	case KindWormBlaster:
		injectWorm(rng, tr, &ev, n, 135, nil)
	case KindWormSasser:
		injectWorm(rng, tr, &ev, n, 445, []uint16{9898, 5554})
	case KindSasserBackdoor:
		injectBackdoorSweep(rng, tr, &ev, n)
	case KindPortSweep:
		injectPortSweep(rng, tr, &ev, n)
	case KindSYNFlood:
		injectSYNFlood(rng, tr, &ev, n)
	case KindICMPFlood:
		injectICMPFlood(rng, tr, &ev, n)
	case KindNetBIOS:
		injectNetBIOS(rng, tr, &ev, n)
	case KindFlashCrowd:
		injectFlashCrowd(rng, tr, &ev, n)
	case KindElephant:
		injectElephant(rng, tr, &ev, n)
	default:
		return ev
	}
	return ev
}

// spread returns n timestamps evenly pacing [ev.Start, ev.End) with jitter.
func spread(rng *rand.Rand, ev *Event, n int) []float64 {
	out := make([]float64, n)
	span := ev.End - ev.Start
	for i := range out {
		base := ev.Start + span*float64(i)/float64(n)
		out[i] = base + rng.Float64()*span/float64(n)*0.9
	}
	return out
}

func injectPortScan(rng *rand.Rand, tr *trace.Trace, ev *Event, n int, port uint16) {
	scanner := outsideHost(rng, 1<<16)
	baseDst := uint32(clientNet | uint32(rng.Intn(200))<<8)
	times := spread(rng, ev, n)
	for i, t := range times {
		dst := trace.IPv4(baseDst + uint32(i)%254 + 1) // sequential sweep
		tr.Append(trace.Packet{
			TS: int64(t * 1e6), Src: scanner, Dst: dst,
			SrcPort: uint16(1024 + i%4000), DstPort: port,
			Proto: trace.TCP, Flags: trace.SYN, Len: 40,
		})
	}
	ev.Packets = n
	ev.Filters = []trace.Filter{trace.NewFilter().WithSrc(scanner).WithDstPort(port).WithProto(trace.TCP)}
	ev.Description = fmt.Sprintf("port scan from %s on %d/tcp", scanner, port)
}

// injectWorm emits worm propagation: several infected sources scanning the
// worm's port, with optional follow-up connections on backdoor ports.
func injectWorm(rng *rand.Rand, tr *trace.Trace, ev *Event, n int, port uint16, backdoors []uint16) {
	nsrc := 2 + rng.Intn(4)
	srcs := make([]trace.IPv4, nsrc)
	for i := range srcs {
		srcs[i] = outsideHost(rng, 1<<16)
	}
	times := spread(rng, ev, n)
	for i, t := range times {
		src := srcs[i%nsrc]
		dst := trace.IPv4(clientNet | uint32(rng.Intn(1<<12)))
		tr.Append(trace.Packet{
			TS: int64(t * 1e6), Src: src, Dst: dst,
			SrcPort: uint16(1024 + i%4000), DstPort: port,
			Proto: trace.TCP, Flags: trace.SYN, Len: 40,
		})
		// A fraction of probes "succeed" and open the backdoor.
		if len(backdoors) > 0 && i%11 == 0 {
			bp := backdoors[i%len(backdoors)]
			tr.Append(trace.Packet{
				TS: int64((t + 0.02) * 1e6), Src: src, Dst: dst,
				SrcPort: uint16(2048 + i%4000), DstPort: bp,
				Proto: trace.TCP, Flags: trace.SYN, Len: 40,
			})
			ev.Packets++
		}
	}
	ev.Packets += n
	for _, src := range srcs {
		ev.Filters = append(ev.Filters, trace.NewFilter().WithSrc(src).WithProto(trace.TCP))
	}
	ev.Description = fmt.Sprintf("worm propagation on %d/tcp from %d hosts", port, nsrc)
}

// injectBackdoorSweep emits Sasser-aftermath traffic: one host probing the
// worm's backdoor ports (5554/tcp, 9898/tcp) across many machines, with
// short data exchanges on hits.
func injectBackdoorSweep(rng *rand.Rand, tr *trace.Trace, ev *Event, n int) {
	src := outsideHost(rng, 1<<16)
	base := uint32(clientNet | uint32(rng.Intn(200))<<8)
	ports := []uint16{5554, 9898}
	times := spread(rng, ev, n)
	emitted := 0
	for i, t := range times {
		dst := trace.IPv4(base + uint32(i)%254 + 1)
		port := ports[i%2]
		tr.Append(trace.Packet{
			TS: int64(t * 1e6), Src: src, Dst: dst,
			SrcPort: uint16(1024 + i%4000), DstPort: port,
			Proto: trace.TCP, Flags: trace.SYN, Len: 40,
		})
		emitted++
		if i%7 == 0 { // a "hit": short exchange on the backdoor
			tr.Append(trace.Packet{
				TS: int64((t + 0.01) * 1e6), Src: src, Dst: dst,
				SrcPort: uint16(1024 + i%4000), DstPort: port,
				Proto: trace.TCP, Flags: trace.ACK | trace.PSH, Len: 120,
			})
			emitted++
		}
	}
	ev.Packets = emitted
	ev.Filters = []trace.Filter{
		trace.NewFilter().WithSrc(src).WithDstPort(5554).WithProto(trace.TCP),
		trace.NewFilter().WithSrc(src).WithDstPort(9898).WithProto(trace.TCP),
	}
	ev.Description = fmt.Sprintf("sasser backdoor sweep from %s", src)
}

func injectPortSweep(rng *rand.Rand, tr *trace.Trace, ev *Event, n int) {
	src := outsideHost(rng, 1<<16)
	victim := insideServer(rng.Intn(64))
	times := spread(rng, ev, n)
	for i, t := range times {
		tr.Append(trace.Packet{
			TS: int64(t * 1e6), Src: src, Dst: victim,
			SrcPort: uint16(40000 + i%20000), DstPort: uint16(1 + i%10000),
			Proto: trace.TCP, Flags: trace.SYN, Len: 40,
		})
	}
	ev.Packets = n
	ev.Filters = []trace.Filter{trace.NewFilter().WithSrc(src).WithDst(victim).WithProto(trace.TCP)}
	ev.Description = fmt.Sprintf("port sweep %s -> %s", src, victim)
}

func injectSYNFlood(rng *rand.Rand, tr *trace.Trace, ev *Event, n int) {
	victim := insideServer(rng.Intn(64))
	port := uint16(80)
	times := spread(rng, ev, n)
	for i, t := range times {
		src := outsideHost(rng, 1<<20) // spoofed-looking variety
		tr.Append(trace.Packet{
			TS: int64(t * 1e6), Src: src, Dst: victim,
			SrcPort: uint16(1024 + i%60000), DstPort: port,
			Proto: trace.TCP, Flags: trace.SYN, Len: 40,
		})
	}
	ev.Packets = n
	ev.Filters = []trace.Filter{trace.NewFilter().WithDst(victim).WithDstPort(port).WithProto(trace.TCP)}
	ev.Description = fmt.Sprintf("SYN flood on %s:80", victim)
}

func injectICMPFlood(rng *rand.Rand, tr *trace.Trace, ev *Event, n int) {
	src := outsideHost(rng, 1<<16)
	victim := insideServer(rng.Intn(64))
	times := spread(rng, ev, n)
	for _, t := range times {
		tr.Append(trace.Packet{
			TS: int64(t * 1e6), Src: src, Dst: victim,
			SrcPort: 8, DstPort: 0, Proto: trace.ICMP, Len: 1000,
		})
	}
	ev.Packets = n
	ev.Filters = []trace.Filter{trace.NewFilter().WithSrc(src).WithDst(victim).WithProto(trace.ICMP)}
	ev.Description = fmt.Sprintf("ICMP flood %s -> %s", src, victim)
}

func injectNetBIOS(rng *rand.Rand, tr *trace.Trace, ev *Event, n int) {
	src := outsideHost(rng, 1<<16)
	base := uint32(clientNet | uint32(rng.Intn(200))<<8)
	times := spread(rng, ev, n)
	for i, t := range times {
		tr.Append(trace.Packet{
			TS: int64(t * 1e6), Src: src, Dst: trace.IPv4(base + uint32(i)%254 + 1),
			SrcPort: uint16(1024 + i%4000), DstPort: 137,
			Proto: trace.UDP, Len: 78,
		})
	}
	ev.Packets = n
	ev.Filters = []trace.Filter{trace.NewFilter().WithSrc(src).WithDstPort(137).WithProto(trace.UDP)}
	ev.Description = fmt.Sprintf("NetBIOS probing from %s", src)
}

func injectFlashCrowd(rng *rand.Rand, tr *trace.Trace, ev *Event, n int) {
	server := insideServer(rng.Intn(64))
	times := spread(rng, ev, n)
	for i, t := range times {
		client := outsideHost(rng, 1<<14)
		cport := uint16(1024 + rng.Intn(60000))
		// Mostly established traffic: the occasional handshake, lots of
		// data — distinguishable from a SYN flood by flag mix.
		if i%8 == 0 {
			tr.Append(trace.Packet{TS: int64(t * 1e6), Src: client, Dst: server,
				SrcPort: cport, DstPort: 80, Proto: trace.TCP, Flags: trace.SYN, Len: 40})
		} else if i%3 == 0 {
			tr.Append(trace.Packet{TS: int64(t * 1e6), Src: client, Dst: server,
				SrcPort: cport, DstPort: 80, Proto: trace.TCP, Flags: trace.ACK | trace.PSH, Len: 300})
		} else {
			tr.Append(trace.Packet{TS: int64(t * 1e6), Src: server, Dst: client,
				SrcPort: 80, DstPort: cport, Proto: trace.TCP, Flags: trace.ACK, Len: 1500})
		}
	}
	ev.Packets = n
	ev.Filters = []trace.Filter{
		trace.NewFilter().WithDst(server).WithDstPort(80).WithProto(trace.TCP),
		trace.NewFilter().WithSrc(server).WithSrcPort(80).WithProto(trace.TCP),
	}
	ev.Description = fmt.Sprintf("flash crowd on %s:80", server)
}

func injectElephant(rng *rand.Rand, tr *trace.Trace, ev *Event, n int) {
	a := outsideHost(rng, 1<<16)
	b := insideClient(rng, 1<<10)
	pa := uint16(10000 + rng.Intn(50000))
	pb := uint16(10000 + rng.Intn(50000))
	times := spread(rng, ev, n)
	for i, t := range times {
		if i%5 == 0 {
			tr.Append(trace.Packet{TS: int64(t * 1e6), Src: b, Dst: a,
				SrcPort: pb, DstPort: pa, Proto: trace.TCP, Flags: trace.ACK, Len: 40})
		} else {
			tr.Append(trace.Packet{TS: int64(t * 1e6), Src: a, Dst: b,
				SrcPort: pa, DstPort: pb, Proto: trace.TCP, Flags: trace.ACK, Len: 1500})
		}
	}
	ev.Packets = n
	ev.Filters = []trace.Filter{
		trace.NewFilter().WithSrc(a).WithDst(b).WithProto(trace.TCP),
		trace.NewFilter().WithSrc(b).WithDst(a).WithProto(trace.TCP),
	}
	ev.Description = fmt.Sprintf("elephant flow %s:%d <-> %s:%d", a, pa, b, pb)
}
