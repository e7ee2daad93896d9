package mawigen

import (
	"math/rand"
	"time"
)

// Archive models the MAWI archive over calendar time: traces per day with
// the link-capacity eras, the Blaster and Sasser outbreak periods, and the
// post-2007 rise of random-port P2P traffic that the paper calls out as a
// heuristics confounder.
type Archive struct {
	// Seed drives all per-day randomness.
	Seed int64
	// Duration is seconds per daily trace (the 15-minute captures are
	// scaled down for laptop-scale experiments).
	Duration float64
	// BaseRate is the background rate in pps before the first link
	// upgrade.
	BaseRate float64
}

// NewArchive returns the archive model at the default experiment scale.
func NewArchive(seed int64) *Archive {
	return &Archive{Seed: seed, Duration: 60, BaseRate: 350}
}

// Key archive dates (§3.1 and §4.2.2).
var (
	// linkUpgrade1 is the 18 Mbps CAR → full 100 Mbps change.
	linkUpgrade1 = time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	// linkUpgrade2 is the move to a 150 Mbps link.
	linkUpgrade2 = time.Date(2007, 6, 1, 0, 0, 0, 0, time.UTC)
	// blasterStart/blasterEnd bound the Blaster worm era.
	blasterStart = time.Date(2003, 8, 11, 0, 0, 0, 0, time.UTC)
	blasterEnd   = time.Date(2004, 4, 1, 0, 0, 0, 0, time.UTC)
	// sasserStart/sasserEnd bound the Sasser worm era.
	sasserStart = time.Date(2004, 5, 1, 0, 0, 0, 0, time.UTC)
	sasserEnd   = time.Date(2005, 9, 1, 0, 0, 0, 0, time.UTC)
)

// RateMultiplier returns the era-dependent traffic-volume factor.
func (a *Archive) RateMultiplier(date time.Time) float64 {
	switch {
	case date.Before(linkUpgrade1):
		return 1.0
	case date.Before(linkUpgrade2):
		return 1.8
	default:
		return 2.5
	}
}

// P2PShare returns the era-dependent share of random-high-port sessions.
func (a *Archive) P2PShare(date time.Time) float64 {
	switch {
	case date.Before(linkUpgrade1):
		return 0.06
	case date.Before(linkUpgrade2):
		return 0.12
	default:
		return 0.28
	}
}

// wormIntensity returns (0,1] decay since outbreak start, 0 outside the era.
func wormIntensity(date, start, end time.Time) float64 {
	if date.Before(start) || !date.Before(end) {
		return 0
	}
	total := end.Sub(start).Hours()
	elapsed := date.Sub(start).Hours()
	return 1 - 0.85*elapsed/total // strong at outbreak, fading to 0.15
}

// daySeed derives the deterministic seed for one calendar day.
func (a *Archive) daySeed(date time.Time) int64 {
	d := date.Year()*10000 + int(date.Month())*100 + date.Day()
	x := uint64(a.Seed) ^ (uint64(d) * 0x9e3779b97f4a7c15)
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return int64(x & 0x7fffffffffffffff)
}

// Day generates the trace for one calendar day with its ground truth.
func (a *Archive) Day(date time.Time) *Result { return Generate(a.dayConfig(date)) }

// dayConfig is the generation config of one archive day.
func (a *Archive) dayConfig(date time.Time) Config {
	seed := a.daySeed(date)
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		Seed:           seed,
		Duration:       a.Duration,
		BackgroundRate: a.BaseRate * a.RateMultiplier(date),
		P2PShare:       a.P2PShare(date),
		Date:           date,
	}

	// Everyday anomaly draw: 3-7 events of mixed kinds.
	kinds := []Kind{
		KindPortScan, KindPortSweep, KindSYNFlood, KindICMPFlood,
		KindNetBIOS, KindFlashCrowd, KindElephant,
	}
	nEvents := 3 + rng.Intn(5)
	for i := 0; i < nEvents; i++ {
		k := kinds[rng.Intn(len(kinds))]
		start := rng.Float64() * cfg.Duration * 0.8
		cfg.Anomalies = append(cfg.Anomalies, Spec{
			Kind:     k,
			Start:    start,
			Duration: 5 + rng.Float64()*15,
			Rate:     40 + rng.Float64()*120,
		})
	}
	// Elevated elephant activity after the P2P shift.
	if a.P2PShare(date) > 0.2 && rng.Intn(2) == 0 {
		cfg.Anomalies = append(cfg.Anomalies, Spec{
			Kind: KindElephant, Start: rng.Float64() * cfg.Duration * 0.5,
			Duration: 20 + rng.Float64()*20, Rate: 150 + rng.Float64()*150,
		})
	}
	// Worm eras add heavy propagation events that reshape the traffic.
	if w := wormIntensity(date, blasterStart, blasterEnd); w > 0 {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			cfg.Anomalies = append(cfg.Anomalies, Spec{
				Kind: KindWormBlaster, Start: rng.Float64() * cfg.Duration * 0.7,
				Duration: 10 + rng.Float64()*30, Rate: (60 + rng.Float64()*200) * w,
			})
		}
	}
	if w := wormIntensity(date, sasserStart, sasserEnd); w > 0 {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			cfg.Anomalies = append(cfg.Anomalies, Spec{
				Kind: KindWormSasser, Start: rng.Float64() * cfg.Duration * 0.7,
				Duration: 10 + rng.Float64()*30, Rate: (60 + rng.Float64()*200) * w,
			})
		}
		// The worm's aftermath: backdoor sweeps of infected hosts.
		nb := 1 + rng.Intn(2)
		for i := 0; i < nb; i++ {
			cfg.Anomalies = append(cfg.Anomalies, Spec{
				Kind: KindSasserBackdoor, Start: rng.Float64() * cfg.Duration * 0.7,
				Duration: 8 + rng.Float64()*20, Rate: (40 + rng.Float64()*120) * w,
			})
		}
	}
	return cfg
}

// EverNDays samples the archive every n days across [start, end) — used to
// scale the nine-year combiner evaluation.
func EverNDays(start, end time.Time, n int) []time.Time {
	var out []time.Time
	for d := start; d.Before(end); d = d.AddDate(0, 0, n) {
		out = append(out, d)
	}
	return out
}
