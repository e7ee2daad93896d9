package mawigen

import (
	"math"
	"math/rand"

	"mawilab/internal/trace"
)

// DefaultWindows is the background-generation window count used when
// Config.Windows is unset. It is a fixed constant — never derived from the
// machine's core count — because the window streams determine the emitted
// bytes: the same config must generate the same trace on every machine.
const DefaultWindows = 16

// Address pools of the synthetic network. The "inside" of the monitored
// link is 10.0.0.0/8 (clients and servers in distinct /16s); the "outside"
// is a wide swath of the address space, mirroring a trans-Pacific transit
// link where one side is a national research network.
const (
	clientNet = 0x0a010000 // 10.1.0.0/16: inside clients
	serverNet = 0x0a000000 // 10.0.0.0/16: inside servers
	extNet    = 0xcb000000 // 203.0.0.0/8-ish: outside hosts
)

func insideClient(rng *rand.Rand, pool int) trace.IPv4 {
	return trace.IPv4(clientNet | uint32(rng.Intn(pool))&0xffff)
}

func insideServer(idx int) trace.IPv4 {
	return trace.IPv4(serverNet | uint32(idx)&0xffff)
}

func outsideHost(rng *rand.Rand, pool int) trace.IPv4 {
	return trace.IPv4(extNet | uint32(rng.Intn(pool))&0xffffff)
}

// session emits the packets of one application session into tr.
type sessionKind int

const (
	sessWeb sessionKind = iota
	sessDNS
	sessSSH
	sessFTP
	sessSMTP
	sessNTP
	sessP2P
	sessICMPEcho
)

// backgroundMix returns a session kind drawn from the archive's rough
// application mix, with the P2P share adjustable.
func backgroundMix(rng *rand.Rand, p2pShare float64) sessionKind {
	r := rng.Float64()
	if r < p2pShare {
		return sessP2P
	}
	r = (r - p2pShare) / (1 - p2pShare)
	switch {
	case r < 0.45:
		return sessWeb
	case r < 0.65:
		return sessDNS
	case r < 0.72:
		return sessSSH
	case r < 0.78:
		return sessFTP
	case r < 0.84:
		return sessSMTP
	case r < 0.90:
		return sessNTP
	default:
		return sessICMPEcho
	}
}

// maxSessionPkts caps heavyTail's draw.
const maxSessionPkts = 4000

// heavyTail draws a Pareto-ish flow length: most sessions are short, a few
// are very long, matching backbone traffic's mice/elephants split.
func heavyTail(rng *rand.Rand, minPkts int, alpha float64) int {
	u := rng.Float64()
	n := float64(minPkts) / math.Pow(1-u, 1/alpha)
	if n > maxSessionPkts {
		n = maxSessionPkts
	}
	return int(n)
}

// meanSessionPackets is the mean packet count of a background session drawn
// by backgroundMix at the given P2P share and emitted by emitSession, from
// each kind's share and mean length. P2P sessions run about 50 packets and
// the rest about 21, so the mean climbs with the P2P share.
func meanSessionPackets(p2pShare float64) float64 {
	// A TCP session is five control packets and a heavyTail of data; the
	// draw's mean is that of a Pareto(minPkts, alpha) capped at
	// maxSessionPkts (its truncation to an int is left out, so this is a
	// little over).
	tcp := func(minPkts, alpha float64) float64 {
		return 5 + minPkts + minPkts/(alpha-1)*(1-math.Pow(minPkts/maxSessionPkts, alpha-1))
	}
	other := 0.45*tcp(6, 1.3) + // web
		0.20*2*2 + // DNS: 1–3 query/reply pairs
		0.07*tcp(10, 1.2) + // SSH
		0.06*tcp(8, 1.2) + // FTP
		0.06*tcp(6, 1.4) + // SMTP
		0.06*2 + // NTP
		0.10*2*2.5 // ICMP echo: 1–4 request/reply pairs
	return p2pShare*tcp(8, 1.1) + (1-p2pShare)*other
}

// backgroundSessions is the number of sessions genBackground draws: its
// packet target over the ≈20 packets a session averages when no P2P is in the
// mix.
func backgroundSessions(cfg Config) int {
	return int(cfg.BackgroundRate * cfg.Duration / 20)
}

// windowRNG derives the independent RNG stream for the w-th background
// window: a splitmix64 finalizer over (seed, window index), in a different
// derivation domain than injectRNG so window and injection streams can never
// collide. The stream depends only on (seed, w).
func windowRNG(seed int64, w int) *rand.Rand {
	x := uint64(seed) + 0x9e3779b97f4a7c15*uint64(w+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x & 0x7fffffffffffffff)))
}

// windowSessions draws the multinomial split of the session budget across
// the windows: each session lands in a window chosen uniformly by a
// dedicated partition stream (windowRNG at index -1, so it collides with no
// window's own stream). This is exactly the window-count distribution the
// pre-windowed generator induced by drawing every session start uniformly
// over the whole duration, so the background's temporal statistics — the
// per-time-bin fluctuation the PCA detector's normal subspace models — are
// preserved, not smoothed by a stratified equal split. The draw is a cheap
// sequential O(sessions) pre-pass depending only on (seed, sessions,
// windows).
func windowSessions(seed int64, sessions, windows int) []int {
	rng := windowRNG(seed, -1)
	counts := make([]int, windows)
	for s := 0; s < sessions; s++ {
		counts[rng.Intn(windows)]++
	}
	return counts
}

// genBackground fills tr with cfg.Duration seconds of background traffic at
// roughly cfg.BackgroundRate packets per second.
//
// The duration splits into cfg.Windows fixed time windows. Each window owns
// the sessions the windowSessions partition assigns it and draws their
// parameters and in-window start times from its own windowRNG stream; the
// windows emit in order. A session starting near the end of its window may
// emit packets past the window boundary; that is fine — windows partition
// session *starts*, not packet timestamps, and the final sort interleaves
// them. Generate has sized the rows for these sessions and the anomalies.
func genBackground(tr *trace.Trace, cfg Config) {
	sessions := backgroundSessions(cfg)
	clientPool := 1 << 10
	extPool := 1 << 16
	windows := cfg.Windows
	winDur := cfg.Duration / float64(windows)
	perWindow := windowSessions(cfg.Seed, sessions, windows)
	for w := 0; w < windows; w++ {
		rng := windowRNG(cfg.Seed, w)
		winStart := float64(w) * winDur
		for s := 0; s < perWindow[w]; s++ {
			start := winStart + rng.Float64()*winDur
			kind := backgroundMix(rng, cfg.P2PShare)
			emitSession(rng, tr, cfg, kind, start, clientPool, extPool)
		}
	}
}

func emitSession(rng *rand.Rand, tr *trace.Trace, cfg Config, kind sessionKind, start float64, clientPool, extPool int) {
	// Half the conversations originate outside, as on a transit link.
	var client, server trace.IPv4
	if rng.Intn(2) == 0 {
		client = insideClient(rng, clientPool)
		server = outsideHost(rng, extPool)
	} else {
		client = outsideHost(rng, extPool)
		server = insideServer(rng.Intn(64))
	}
	cport := uint16(1024 + rng.Intn(60000))
	ts := func(sec float64) int64 { return int64(sec * 1e6) }
	add := func(sec float64, src, dst trace.IPv4, sp, dp uint16, proto trace.Proto, fl trace.TCPFlags, size int) {
		if sec >= cfg.Duration {
			return
		}
		tr.Append(trace.Packet{
			TS: ts(sec), Src: src, Dst: dst, SrcPort: sp, DstPort: dp,
			Proto: proto, Flags: fl, Len: uint16(size),
		})
	}

	switch kind {
	case sessWeb:
		sport := uint16(80)
		if rng.Float64() < 0.1 {
			sport = 8080
		}
		emitTCPSession(rng, add, start, client, server, cport, sport, heavyTail(rng, 6, 1.3))
	case sessDNS:
		t := start
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			add(t, client, server, cport, 53, trace.UDP, 0, 60+rng.Intn(40))
			add(t+0.02, server, client, 53, cport, trace.UDP, 0, 100+rng.Intn(400))
			t += 0.05 + rng.Float64()*0.3
		}
	case sessSSH:
		emitTCPSession(rng, add, start, client, server, cport, 22, heavyTail(rng, 10, 1.2))
	case sessFTP:
		port := uint16(21)
		if rng.Intn(2) == 0 {
			port = 20
		}
		emitTCPSession(rng, add, start, client, server, cport, port, heavyTail(rng, 8, 1.2))
	case sessSMTP:
		emitTCPSession(rng, add, start, client, server, cport, 25, heavyTail(rng, 6, 1.4))
	case sessNTP:
		add(start, client, server, 123, 123, trace.UDP, 0, 76)
		add(start+0.05, server, client, 123, 123, trace.UDP, 0, 76)
	case sessP2P:
		// Random high ports both sides; may be a long transfer.
		p1 := uint16(10000 + rng.Intn(50000))
		p2 := uint16(10000 + rng.Intn(50000))
		emitTCPSession(rng, add, start, client, server, p1, p2, heavyTail(rng, 8, 1.1))
	case sessICMPEcho:
		t := start
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			add(t, client, server, 8, 0, trace.ICMP, 0, 84)
			add(t+0.03, server, client, 0, 0, trace.ICMP, 0, 84)
			t += 1.0
		}
	}
}

// emitTCPSession writes a bidirectional TCP conversation: handshake, data
// exchange with heavy-tailed sizes, teardown.
func emitTCPSession(rng *rand.Rand, add func(sec float64, src, dst trace.IPv4, sp, dp uint16, proto trace.Proto, fl trace.TCPFlags, size int), start float64, client, server trace.IPv4, cport, sport uint16, pkts int) {
	t := start
	gap := func() float64 { return 0.002 + rng.ExpFloat64()*0.03 }
	add(t, client, server, cport, sport, trace.TCP, trace.SYN, 40)
	t += gap()
	add(t, server, client, sport, cport, trace.TCP, trace.SYN|trace.ACK, 40)
	t += gap()
	add(t, client, server, cport, sport, trace.TCP, trace.ACK, 40)
	for i := 0; i < pkts; i++ {
		t += gap()
		if rng.Intn(3) == 0 {
			// Client-side request/ack.
			add(t, client, server, cport, sport, trace.TCP, trace.ACK|trace.PSH, 40+rng.Intn(500))
		} else {
			// Server-side data, MTU-limited.
			size := 1500
			if rng.Intn(4) == 0 {
				size = 200 + rng.Intn(1300)
			}
			add(t, server, client, sport, cport, trace.TCP, trace.ACK, size)
		}
	}
	t += gap()
	add(t, client, server, cport, sport, trace.TCP, trace.FIN|trace.ACK, 40)
	t += gap()
	add(t, server, client, sport, cport, trace.TCP, trace.FIN|trace.ACK, 40)
}
