package radix

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkSort sorts a copy of in through Sort with the given scratch and
// compares it, element by element, with slices.Sort of another copy.
func checkSort[T Word](t *testing.T, name string, in, scratch []T) {
	t.Helper()
	want := slices.Clone(in)
	slices.Sort(want)
	a := slices.Clone(in)
	got := Sort(a, scratch)
	if !slices.Equal(got, want) {
		t.Errorf("%s: Sort differs from slices.Sort (n=%d)", name, len(in))
	}
	// A scratch long enough is used, never replaced.
	if len(got) > 0 && len(scratch) >= len(a) && &got[0] != &a[0] && &got[0] != &scratch[0] {
		t.Errorf("%s: result aliases neither the input nor the scratch", name)
	}
}

// sortLengths straddle the small-slice threshold and end well past it.
var sortLengths = []int{0, 1, small - 1, small, small + 1, 50_000}

// sortMasks leave one, two, four, eight and non-adjacent bytes varying.
var sortMasks = []struct {
	name string
	mask uint64
}{
	{"1byte", 0x0000_0000_0000_ff00},
	{"2bytes", 0x0000_0000_ffff_0000},
	{"4bytes", 0x0000_00ff_ffff_ff00},
	{"8bytes", 0xffff_ffff_ffff_ffff},
	{"nonadjacent", 0x00ff_0000_00ff_00ff},
	{"lowbits", 0x0000_0000_0000_0007},
}

// differential runs every length × mask for one word type; max clears the
// bits the type cannot hold as a non-negative value, and fixed sets bits
// that every element then shares (constant non-zero bytes).
func differential[T Word](t *testing.T, typ string, max uint64) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range sortLengths {
		for _, m := range sortMasks {
			for _, fixed := range []uint64{0, 0x0102_0304_0506_0708 &^ m.mask & max} {
				in := make([]T, n)
				for i := range in {
					in[i] = T(rng.Uint64()&m.mask&max | fixed)
				}
				name := fmt.Sprintf("%s/n=%d/%s/fixed=%#x", typ, n, m.name, fixed)
				checkSort(t, name, in, nil)
				checkSort(t, name+"/short-scratch", in, make([]T, n/2))
				checkSort(t, name+"/long-scratch", in, make([]T, 2*n+3))

				sorted := slices.Clone(in)
				slices.Sort(sorted)
				checkSort(t, name+"/sorted", sorted, make([]T, n))
				slices.Reverse(sorted)
				checkSort(t, name+"/reversed", sorted, make([]T, n))
			}
		}
		equal := make([]T, n)
		for i := range equal {
			equal[i] = T(0x1234_5678 & max)
		}
		checkSort(t, fmt.Sprintf("%s/n=%d/all-equal", typ, n), equal, nil)
	}
}

func TestSortMatchesSlicesSort(t *testing.T) {
	differential[uint64](t, "uint64", math.MaxUint64)
	differential[int](t, "int", math.MaxInt)
	differential[int32](t, "int32", math.MaxInt32)
}

// TestSortIsStableUnderPackedPayload: what callers rely on stability for —
// a key<<32|id word comes out by key, ids ascending inside a key.
func TestSortIsStableUnderPackedPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	words := make([]uint64, 4*small)
	for id := range words {
		words[id] = uint64(rng.Intn(7))<<32 | uint64(id)
	}
	got := Sort(words, nil)
	for i := 1; i < len(got); i++ {
		if got[i-1]>>32 > got[i]>>32 || (got[i-1]>>32 == got[i]>>32 && uint32(got[i-1]) >= uint32(got[i])) {
			t.Fatalf("words %#x, %#x out of (key, id) order at %d", got[i-1], got[i], i)
		}
	}
}

// TestSortedInputAllocatesNothing: an ascending slice is returned as it is,
// before any scratch is made.
func TestSortedInputAllocatesNothing(t *testing.T) {
	a := make([]int, 10*small)
	for i := range a {
		a[i] = 3 * i
	}
	if allocs := testing.AllocsPerRun(10, func() { Sort(a, nil) }); allocs != 0 {
		t.Errorf("Sort of sorted input allocated %v objects, want 0", allocs)
	}
}

// fuzzWords reads data as little-endian words, the top bit cleared so the
// same bytes are valid for the signed instantiations.
func fuzzWords(data []byte) []uint64 {
	ws := make([]uint64, 0, len(data)/8)
	for ; len(data) >= 8; data = data[8:] {
		ws = append(ws, binary.LittleEndian.Uint64(data)&math.MaxInt64)
	}
	return ws
}

// FuzzSort compares Sort with slices.Sort on arbitrary words, as uint64 and,
// masked to the non-negative values Sort's contract admits, as int (63 or 31
// bits, whatever int's width) and as int32. The first byte picks the
// scratch: none, half the input, or more than the input.
func FuzzSort(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, small - 1, small + 1, 3 * small} {
		for _, mask := range []uint64{0xff, 0xffff_0000, 0x00ff_0000_00ff_00ff, math.MaxUint64} {
			seed := []byte{byte(n)}
			for i := 0; i < n; i++ {
				seed = binary.LittleEndian.AppendUint64(seed, rng.Uint64()&mask)
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ws := fuzzWords(data[1:])
		scratchLen := []int{0, len(ws) / 2, len(ws) + 1}[int(data[0])%3]

		checkSort(t, "uint64", ws, make([]uint64, scratchLen))
		ints := make([]int, len(ws))
		int32s := make([]int32, len(ws))
		for i, w := range ws {
			ints[i] = int(w & math.MaxInt)
			int32s[i] = int32(w & math.MaxInt32)
		}
		checkSort(t, "int", ints, make([]int, scratchLen))
		checkSort(t, "int32", int32s, make([]int32, scratchLen))
	})
}
