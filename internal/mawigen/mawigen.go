// Package mawigen generates synthetic MAWI-like backbone traces. It stands
// in for the real MAWI archive (§3.1), which this reproduction cannot ship:
// the generator emits the packet-header-only view MAWI provides, with a
// realistic background application mix, a per-day anomaly draw, the
// archive's link-capacity eras, and the 2003-2005 worm outbreaks that shape
// the paper's Figures 7 and 8.
//
// Every trace is produced deterministically from (seed, date), and the
// injected anomalies are recorded as ground-truth events so detector
// quality can be measured directly — something even the paper could not do
// on the real archive.
package mawigen

import (
	"fmt"
	"math/rand"
	"time"

	"mawilab/internal/trace"
)

// Kind enumerates the anomaly families the generator can inject. They map
// onto the behaviours the paper's Table 1 heuristics and detector ensemble
// react to.
type Kind uint8

// Injected anomaly kinds.
const (
	// KindPortScan is one source probing one port across many hosts.
	KindPortScan Kind = iota
	// KindPortSweep is one source probing many ports on one host.
	KindPortSweep
	// KindSYNFlood is many spoofed sources flooding one service with SYNs.
	KindSYNFlood
	// KindICMPFlood is a high-rate ping flood between two hosts.
	KindICMPFlood
	// KindNetBIOS is NetBIOS name-service probing (137/udp) across hosts.
	KindNetBIOS
	// KindFlashCrowd is a legitimate-looking surge of clients to one
	// web server (an anomaly, but not an attack).
	KindFlashCrowd
	// KindElephant is one extreme-volume transfer on random high ports,
	// the post-2007 P2P behaviour that confuses port heuristics.
	KindElephant
	// KindWormBlaster is Blaster-style propagation: infected hosts
	// scanning 135/tcp.
	KindWormBlaster
	// KindWormSasser is Sasser-style propagation: scanning 445/tcp with
	// follow-up connections on 9898/tcp and 5554/tcp.
	KindWormSasser
	// KindSasserBackdoor is the worm's aftermath: hosts sweeping the
	// 5554/tcp (ftp backdoor) and 9898/tcp ports of already-infected
	// machines — the traffic Table 1's "Sasser" row keys on.
	KindSasserBackdoor
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPortScan:
		return "portscan"
	case KindPortSweep:
		return "portsweep"
	case KindSYNFlood:
		return "synflood"
	case KindICMPFlood:
		return "icmpflood"
	case KindNetBIOS:
		return "netbios"
	case KindFlashCrowd:
		return "flashcrowd"
	case KindElephant:
		return "elephant"
	case KindWormBlaster:
		return "blaster"
	case KindWormSasser:
		return "sasser"
	case KindSasserBackdoor:
		return "sasser-backdoor"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event records one injected anomaly: the ground truth of a trace.
type Event struct {
	Kind Kind
	// Start and End bound the event in seconds since trace start.
	Start, End float64
	// Filters identify the anomalous traffic (same language as alarms).
	Filters []trace.Filter
	// Packets is the number of packets injected.
	Packets int
	// Description is a human-readable summary.
	Description string
}

// Matches reports whether packet p belongs to the event.
func (e *Event) Matches(p *trace.Packet) bool {
	for _, f := range e.Filters {
		if f.Match(p) {
			return true
		}
	}
	return false
}

// Spec requests one anomaly injection.
type Spec struct {
	Kind Kind
	// Start is the onset in seconds; Duration the active period.
	Start, Duration float64
	// Rate is the intensity in packets per second.
	Rate float64
}

// resolve fills in the defaults of an injection into a trace of the given
// duration — a quarter of the trace, from its start, at 80 pps — and returns
// the spec with the end of its active span, cut at the trace's end.
func (spec Spec) resolve(duration float64) (Spec, float64) {
	if spec.Duration <= 0 {
		spec.Duration = duration / 4
	}
	if spec.Start < 0 {
		spec.Start = 0
	}
	end := min(spec.Start+spec.Duration, duration)
	if spec.Rate <= 0 {
		spec.Rate = 80
	}
	return spec, end
}

// Config parameterizes one generated trace.
type Config struct {
	// Seed drives all randomness. Every RNG stream of a generation run —
	// one per background window, one per anomaly injection — is derived
	// deterministically from (Seed, stream index), so equal configs
	// generate byte-identical traces.
	Seed int64
	// Duration is the trace length in seconds (the archive's 15-minute
	// traces are scaled down; default 60).
	Duration float64
	// BackgroundRate is the mean background packet rate in pps.
	BackgroundRate float64
	// P2PShare is the fraction of background sessions using random high
	// ports (grows after 2007 in the archive model).
	P2PShare float64
	// Anomalies lists the injections; nil means background only.
	Anomalies []Spec
	// Date stamps the trace (metadata only).
	Date time.Time
	// Name overrides the trace name (defaults to the date).
	Name string
	// Windows is the number of fixed time windows the background
	// generation splits Duration into; 0 or negative selects
	// DefaultWindows. Each window draws its sessions from a private RNG
	// stream derived from (Seed, window index), so the emitted trace is a
	// pure function of the config. Changing Windows changes the streams,
	// and therefore the bytes, so it is part of the reproducibility
	// contract along with Seed (pinned by TestGenerateDeterminism's golden
	// digests).
	Windows int
}

// DefaultConfig returns a background-only 60-second trace configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		Duration:       60,
		BackgroundRate: 400,
		P2PShare:       0.08,
	}
}

// Result is a generated trace plus its ground truth.
type Result struct {
	Trace *trace.Trace
	Truth []Event
}

// Generate builds the trace described by cfg.
func Generate(cfg Config) *Result {
	if cfg.Duration <= 0 {
		cfg.Duration = 60
	}
	if cfg.BackgroundRate <= 0 {
		cfg.BackgroundRate = 400
	}
	if cfg.Windows <= 0 {
		cfg.Windows = DefaultWindows
	}
	tr := &trace.Trace{Date: cfg.Date, Name: cfg.Name}
	if tr.Name == "" {
		if !cfg.Date.IsZero() {
			tr.Name = cfg.Date.Format("2006-01-02")
		} else {
			tr.Name = fmt.Sprintf("seed-%d", cfg.Seed)
		}
	}
	tr.Packets = make([]trace.Packet, 0, rowBudget(cfg))
	genBackground(tr, cfg)
	var truth []Event
	for i, spec := range cfg.Anomalies {
		if ev := inject(injectRNG(cfg.Seed, i), tr, cfg, spec); ev.Packets > 0 {
			truth = append(truth, ev)
		}
	}
	tr.Sort()
	return &Result{Trace: tr, Truth: truth}
}

// rowBudget is the row count Generate sizes a trace for: the background's
// sessions times their mean length (meanSessionPackets) and each anomaly's
// Rate over its active span. The draws stray from these means by less than
// one growth step of the rows: at most 9.4 % over, on every fifth day of
// 2001–2010 at 30, 45 and 60 s (TestGenerateSizesRowsOnce samples every
// 61st).
func rowBudget(cfg Config) int {
	n := float64(backgroundSessions(cfg)) * meanSessionPackets(cfg.P2PShare)
	for _, spec := range cfg.Anomalies {
		spec, end := spec.resolve(cfg.Duration)
		n += spec.Rate * max(end-spec.Start, 0)
	}
	return int(n)
}

// injectRNG derives the independent RNG for the i-th anomaly spec.
func injectRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(0x9e3779b9*uint32(i+1))))
}
