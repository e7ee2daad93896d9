// Package sketch implements the random-projection hashing ("sketches") that
// the PCA-based and Gamma-based detectors use to fold the IP address space
// into a small number of bins (Li et al. IMC'06, Dewaele et al. LSAD'07).
//
// A Sketch is a seeded universal hash from IPv4 addresses to [0, Bins).
// Running the same detector over several independently-seeded sketches and
// intersecting the suspicious bins recovers the original addresses — the
// trick that makes PCA able to report *which* source caused an anomaly.
package sketch

import (
	"slices"

	"mawilab/internal/trace"
)

// Sketch hashes IPv4 addresses into Bins buckets with a seeded 64-bit
// mix function (splitmix64 finalizer), giving near-uniform spread and
// independence across seeds.
type Sketch struct {
	Bins int
	Seed uint64
}

// New returns a sketch with the given number of bins and seed. Bins must be
// positive.
func New(bins int, seed uint64) *Sketch {
	if bins <= 0 {
		panic("sketch: bins must be positive")
	}
	return &Sketch{Bins: bins, Seed: seed}
}

// Bin returns the bucket of ip in [0, Bins). Power-of-two bin counts — every
// detector in the repo uses one — take a mask instead of the integer
// division, which matters in the detectors' per-packet rasterization loops;
// the two forms are value-identical (h % 2^k == h & (2^k - 1)).
func (s *Sketch) Bin(ip trace.IPv4) int {
	h := trace.Mix64(uint64(ip) ^ s.Seed)
	if b := uint64(s.Bins); b&(b-1) == 0 {
		return int(h & (b - 1))
	}
	return int(h % uint64(s.Bins))
}

// TopHosts returns the k heaviest addresses of addrs — one entry per packet,
// sorted in place — by descending packet count, ties to the smaller
// address. It is the one "dominant hosts" ranking of the repo: the Gamma
// detector's per-bin hosts, PCA's per-cell hosts and the hosts under a Hough
// line all go through it.
func TopHosts(addrs []trace.IPv4, k int) []trace.IPv4 {
	if k <= 0 {
		return nil
	}
	slices.Sort(addrs)
	type hostCount struct {
		host trace.IPv4
		n    int
	}
	// Runs arrive in ascending address order, so inserting each one below
	// every entry with a count at least as large keeps ties on the smaller
	// address without comparing addresses.
	top := make([]hostCount, 0, min(k, len(addrs)))
	for i := 0; i < len(addrs); {
		j := i + 1
		for j < len(addrs) && addrs[j] == addrs[i] {
			j++
		}
		n := j - i
		at := len(top)
		for at > 0 && top[at-1].n < n {
			at--
		}
		if at < k {
			if len(top) < k {
				top = append(top, hostCount{})
			}
			copy(top[at+1:], top[at:])
			top[at] = hostCount{addrs[i], n}
		}
		i = j
	}
	out := make([]trace.IPv4, len(top))
	for i, hc := range top {
		out[i] = hc.host
	}
	return out
}
