package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.total != 0 || len(h.counts) != 0 {
		t.Fatal("new histogram not empty")
	}
	h.Add(80, 3)
	h.Add(53, 1)
	h.Add(80, 1)
	if h.total != 5 {
		t.Errorf("total = %f, want 5", h.total)
	}
	if len(h.counts) != 2 || h.counts[80] != 4 || h.counts[53] != 1 {
		t.Errorf("counts = %v, want 80:4 53:1", h.counts)
	}
}

func TestHistogramZeroValueUsable(t *testing.T) {
	var h Histogram
	h.Add(1, 1)
	if h.total != 1 || h.counts[1] != 1 {
		t.Error("zero-value histogram should accept Add")
	}
}

func TestEntropyBounds(t *testing.T) {
	// Uniform over 8 keys → 3 bits; single key → 0 bits.
	h := NewHistogram()
	for k := uint64(0); k < 8; k++ {
		h.Add(k, 1)
	}
	if e := h.Entropy(); math.Abs(e-3) > 1e-12 {
		t.Errorf("uniform-8 entropy = %f, want 3", e)
	}
	single := NewHistogram()
	single.Add(42, 100)
	if e := single.Entropy(); e != 0 {
		t.Errorf("single-bin entropy = %f, want 0", e)
	}
}

func TestKLDivergenceProperties(t *testing.T) {
	// Identical distributions → (near) zero divergence.
	h := NewHistogram()
	q := NewHistogram()
	for k := uint64(0); k < 10; k++ {
		h.Add(k, float64(k+1))
		q.Add(k, float64(k+1)*7) // same shape, different mass
	}
	if d := h.KLDivergence(q, 1e-9); d > 1e-6 {
		t.Errorf("KL of identical shapes = %g, want ~0", d)
	}
	// A concentrated shift must have large divergence.
	shifted := NewHistogram()
	shifted.Add(999, 100)
	if d := h.KLDivergence(shifted, 1e-9); d < 1 {
		t.Errorf("KL of disjoint supports = %g, want large", d)
	}
}

func TestKLDivergenceNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, q := NewHistogram(), NewHistogram()
		for i := 0; i < 30; i++ {
			h.Add(uint64(rng.Intn(20)), float64(1+rng.Intn(10)))
			q.Add(uint64(rng.Intn(20)), float64(1+rng.Intn(10)))
		}
		return h.KLDivergence(q, 1e-6) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKLEmpty(t *testing.T) {
	h := NewHistogram()
	q := NewHistogram()
	q.Add(1, 1)
	if h.KLDivergence(q, 1e-6) != 0 || q.KLDivergence(h, 1e-6) != 0 {
		t.Error("KL with an empty side should be 0")
	}
}

func TestTopK(t *testing.T) {
	h := NewHistogram()
	h.Add(1, 5)
	h.Add(2, 10)
	h.Add(3, 1)
	top := h.TopK(2)
	if len(top) != 2 || top[0].Key != 2 || top[1].Key != 1 {
		t.Errorf("TopK(2) = %v", top)
	}
	all := h.TopK(10)
	if len(all) != 3 {
		t.Errorf("TopK(10) returned %d entries, want 3", len(all))
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	h := NewHistogram()
	for k := uint64(0); k < 50; k++ {
		h.Add(k, 1)
	}
	a := h.TopK(5)
	b := h.TopK(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TopK not deterministic under ties")
		}
	}
	if a[0].Key != 0 {
		t.Errorf("tie break should prefer smaller key, got %d", a[0].Key)
	}
}
