package main

import "math"

// splitmix is the splitmix64 generator: tiny, seedable per (seed, stream) and
// stable across Go releases, so an op stream is a pure function of -seed.
type splitmix struct{ x uint64 }

// newStream derives the generator for one named stream of a seed; clients
// and rounds each draw from their own stream.
func newStream(seed int64, stream uint64) *splitmix {
	s := &splitmix{x: uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9}
	s.next()
	return s
}

func (s *splitmix) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0,1).
func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0,n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// perm returns a seeded Fisher-Yates shuffle of 0..n-1.
func (s *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// picker draws indices with fixed relative weights by inverting the
// cumulative distribution.
type picker struct{ cum []float64 }

func newPicker(weights []float64) picker {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return picker{cum}
}

// zipf returns the picker over n ranks with weight 1/rank^s: rank 0 is the
// most popular.
func zipf(n int, s float64) picker {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
	}
	return newPicker(w)
}

func (p picker) pick(r *splitmix) int {
	u := r.float()
	for i, c := range p.cum {
		if u < c {
			return i
		}
	}
	return len(p.cum) - 1
}
