package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

func TestStreamsAreReproducibleAndIndependent(t *testing.T) {
	a, b := newStream(7, 1), newStream(7, 1)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("the same (seed, stream) diverged")
		}
	}
	if newStream(7, 1).next() == newStream(7, 2).next() {
		t.Error("two streams of one seed start alike")
	}
	if newStream(7, 1).next() == newStream(8, 1).next() {
		t.Error("two seeds start alike")
	}
	r := newStream(1, 1)
	for i := 0; i < 1000; i++ {
		if f := r.float(); f < 0 || f >= 1 {
			t.Fatalf("float() = %v", f)
		}
		if n := r.intn(7); n < 0 || n >= 7 {
			t.Fatalf("intn(7) = %v", n)
		}
	}
}

func TestPermIsASeededPermutation(t *testing.T) {
	p := newStream(3, 1).perm(16)
	q := newStream(3, 1).perm(16)
	moved := false
	for i := range p {
		if p[i] != q[i] {
			t.Fatal("the same seed shuffled differently")
		}
		moved = moved || p[i] != i
	}
	if !moved {
		t.Error("perm left the identity")
	}
	s := append([]int(nil), p...)
	sort.Ints(s)
	for i, v := range s {
		if v != i {
			t.Fatalf("perm is not a permutation: %v", p)
		}
	}
}

func TestPickersFollowTheirWeights(t *testing.T) {
	const draws = 200000
	r := newStream(5, 1)
	mix := newPicker(mixWeights)
	got := make([]float64, len(mixWeights))
	for i := 0; i < draws; i++ {
		got[mix.pick(r)]++
	}
	for i, w := range mixWeights {
		if share := got[i] / draws; math.Abs(share-w/10) > 0.005 {
			t.Errorf("kind %d drawn with share %.4f, want %.1f", i, share, w/10)
		}
	}

	// Zipf(1) over 16 ranks: rank k has weight 1/(k+1) of the harmonic sum.
	z := zipf(16, 1)
	h := 0.0
	for k := 1; k <= 16; k++ {
		h += 1 / float64(k)
	}
	ranks := make([]float64, 16)
	for i := 0; i < draws; i++ {
		ranks[z.pick(r)]++
	}
	for _, k := range []int{0, 1, 7, 15} {
		want := 1 / float64(k+1) / h
		if share := ranks[k] / draws; math.Abs(share-want) > 0.005 {
			t.Errorf("rank %d drawn with share %.4f, want %.4f", k, share, want)
		}
	}
}

func TestWindowClosesReplaysTheEngine(t *testing.T) {
	seals := make([]time.Time, 6)
	for i := range seals {
		seals[i] = time.Unix(int64(i), 0)
	}
	// Windows of four advancing by one over six segments: 0-3, 1-4, 2-5.
	closes := windowCloses(seals)
	if len(closes) != 3 || closes[0] != seals[3] || closes[2] != seals[5] {
		t.Errorf("closes = %v", closes)
	}
	// A stream shorter than one window still labels its partial window.
	if closes := windowCloses(seals[:2]); len(closes) != 1 || closes[0] != seals[1] {
		t.Errorf("partial window closes = %v", closes)
	}
}
