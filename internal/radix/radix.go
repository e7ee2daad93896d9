// Package radix orders slices of integer words without comparing them: a
// least-significant-byte-first radix sort, one counting pass per byte.
//
// Contract: every element is non-negative. A word is read as its unsigned
// bit pattern, so a negative element of a signed type would sort after every
// positive one. Every key in this repository is an index, an id, a port or an
// address packed into a word, and none is negative.
//
// Each pass is stable — elements that share the pass's byte keep the order
// the previous pass left them in — which is what makes the least significant
// byte first correct. Equal words are indistinguishable, so a caller sees
// stability through what it packs below its key: a posting word key<<32|id
// comes out in (key, id) order.
//
// Constant bytes are skipped. The keys sorted here are narrow inside their
// word: a packet index below 2^16 in an int has six bytes that are zero in
// every element, the addresses of one network share their top bytes. One
// OR/AND pre-pass finds the bytes on which all elements agree; a pass over
// such a byte would move every element into one bucket in the order it
// already has, so those passes are not run and the cost follows the bytes
// that carry information, not the width of the type.
package radix

import "slices"

// Word is the integer types Sort accepts.
type Word interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// small is the length below which Sort hands the slice to slices.Sort: under
// it the 256-counter histogram per pass costs more than the comparisons it
// saves (BenchmarkRadixSort/n=64 sits on this side, n=11k and n=50k on the
// other). It is chosen from the input's length alone.
const small = 256

// Sort sorts the non-negative words of a ascending and returns them. The
// result is a itself or scratch[:len(a)], whichever the last pass wrote, and
// the other holds leftovers: use only the returned slice. A scratch shorter
// than a is replaced by a fresh one; pass nil to let Sort allocate. a and
// scratch must not overlap.
func Sort[T Word](a, scratch []T) []T { return SortAbove(a, scratch, 0) }

// SortAbove is Sort for words whose bits below bit from already ascend along
// a — a posting's key<<32|id words, ids in order, with from 32 — and makes no
// pass over those bits: every pass is stable, so words that agree above from
// keep the order they came in, which is Sort's order.
func SortAbove[T Word](a, scratch []T, from uint) []T {
	if len(a) < small {
		slices.Sort(a)
		return a
	}
	or, and, sorted := a[0], a[0], true
	for i := 1; i < len(a); i++ {
		v := a[i]
		or |= v
		and &= v
		sorted = sorted && a[i-1] <= v
	}
	if sorted {
		return a
	}
	if len(scratch) < len(a) {
		scratch = make([]T, len(a))
	}
	src, dst := a, scratch[:len(a)]
	vary := uint64(or^and) >> from << from
	for shift := uint(0); vary>>shift != 0; shift += 8 {
		if vary>>shift&0xff == 0 {
			continue
		}
		var next [256]int
		for _, v := range src {
			next[uint64(v)>>shift&0xff]++
		}
		pos := 0
		for b, c := range next {
			next[b] = pos
			pos += c
		}
		for _, v := range src {
			b := uint64(v) >> shift & 0xff
			dst[next[b]] = v
			next[b]++
		}
		src, dst = dst, src
	}
	return src
}
