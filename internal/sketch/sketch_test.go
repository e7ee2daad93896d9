package sketch

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mawilab/internal/trace"
)

func TestBinRange(t *testing.T) {
	s := New(32, 42)
	f := func(ip uint32) bool {
		b := s.Bin(trace.IPv4(ip))
		return b >= 0 && b < 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinDeterministic(t *testing.T) {
	a := New(16, 7)
	b := New(16, 7)
	for ip := uint32(0); ip < 1000; ip++ {
		if a.Bin(trace.IPv4(ip)) != b.Bin(trace.IPv4(ip)) {
			t.Fatal("same seed must give same binning")
		}
	}
}

func TestSeedsIndependent(t *testing.T) {
	// Different seeds should disagree on a substantial fraction of inputs.
	a := New(16, 1)
	b := New(16, 2)
	same := 0
	const n = 10000
	for ip := uint32(0); ip < n; ip++ {
		if a.Bin(trace.IPv4(ip)) == b.Bin(trace.IPv4(ip)) {
			same++
		}
	}
	frac := float64(same) / n
	if math.Abs(frac-1.0/16) > 0.02 {
		t.Errorf("seed collision fraction = %f, want ~1/16", frac)
	}
}

func TestBinUniformity(t *testing.T) {
	s := New(8, 99)
	counts := make([]int, 8)
	const n = 80000
	for ip := uint32(0); ip < n; ip++ {
		counts[s.Bin(trace.IPv4(ip*2654435761))]++
	}
	for b, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.125) > 0.01 {
			t.Errorf("bin %d holds %f of mass, want ~0.125", b, frac)
		}
	}
}

func TestNewPanicsOnBadBins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0, 1)
}

func TestTopHostsOrdering(t *testing.T) {
	heavy := trace.MakeIPv4(1, 1, 1, 1)
	light := trace.MakeIPv4(2, 2, 2, 2)
	packets := func() []trace.IPv4 {
		addrs := []trace.IPv4{light}
		for i := 0; i < 10; i++ {
			addrs = append(addrs, heavy)
		}
		return addrs
	}
	top := TopHosts(packets(), 5)
	if len(top) != 2 || top[0] != heavy || top[1] != light {
		t.Errorf("TopHosts = %v", top)
	}
	if got := TopHosts(packets(), 1); len(got) != 1 || got[0] != heavy {
		t.Errorf("TopHosts k=1 = %v", got)
	}
	if got := TopHosts(packets(), 0); len(got) != 0 {
		t.Errorf("TopHosts k=0 = %v", got)
	}
	if got := TopHosts(nil, 3); len(got) != 0 {
		t.Errorf("TopHosts of nothing = %v", got)
	}
}

func TestTopHostsDeterministicTies(t *testing.T) {
	var addrs []trace.IPv4
	for oct := byte(20); oct >= 1; oct-- {
		addrs = append(addrs, trace.MakeIPv4(10, 0, 0, oct))
	}
	a := TopHosts(slices.Clone(addrs), 20)
	slices.Reverse(addrs)
	b := TopHosts(addrs, 20)
	if len(a) != 20 || !slices.Equal(a, b) {
		t.Fatalf("TopHosts depends on input order: %v vs %v", a, b)
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatal("equal-count hosts should be ordered by address")
		}
	}
}

// TestTopHostsMatchesFullSort pins the bounded insertion to the plain
// definition — count every address, sort by (count desc, address asc), cut
// at k — on random multisets, for k below, at and above the distinct count.
func TestTopHostsMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		addrs := make([]trace.IPv4, rng.Intn(60))
		for i := range addrs {
			addrs[i] = trace.IPv4(rng.Intn(12))
		}
		counts := map[trace.IPv4]int{}
		for _, a := range addrs {
			counts[a]++
		}
		var want []trace.IPv4
		for a := range counts {
			want = append(want, a)
		}
		sort.Slice(want, func(i, j int) bool {
			if counts[want[i]] != counts[want[j]] {
				return counts[want[i]] > counts[want[j]]
			}
			return want[i] < want[j]
		})
		k := rng.Intn(15)
		if k < len(want) {
			want = want[:k]
		}
		got := TopHosts(addrs, k)
		if len(got) != len(want) || (len(want) > 0 && !slices.Equal(got, want)) {
			t.Fatalf("round %d k=%d: got %v, want %v", round, k, got, want)
		}
	}
}
