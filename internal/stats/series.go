package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one (X, Y) sample of a rendered series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points, the common currency between the
// experiment harnesses and the text renderers that reproduce the paper's
// figures.
type Series struct {
	Name   string
	Points []Point
}

// ECDF builds the empirical CDF of xs: for each distinct value v, the
// fraction of samples ≤ v. This reproduces the "CDF of ..." panels of
// Fig. 3.
func ECDF(name string, xs []float64) Series {
	s := Series{Name: name}
	if len(xs) == 0 {
		return s
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		s.Points = append(s.Points, Point{X: sorted[i], Y: float64(j) / n})
		i = j
	}
	return s
}

// PDF builds a binned probability density over [lo, hi) with the given
// number of bins; Y values integrate to 1 (density, not mass), matching the
// "PDF of attack ratio" panels of Fig. 6 and Fig. 10.
func PDF(name string, xs []float64, lo, hi float64, bins int) Series {
	s := Series{Name: name}
	if bins <= 0 || hi <= lo || len(xs) == 0 {
		return s
	}
	width := (hi - lo) / float64(bins)
	counts := make([]int, bins)
	total := 0
	for _, x := range xs {
		if x < lo || x > hi {
			continue
		}
		b := int((x - lo) / width)
		if b == bins { // x == hi lands in the last bin
			b = bins - 1
		}
		counts[b]++
		total++
	}
	if total == 0 {
		return s
	}
	for b := 0; b < bins; b++ {
		density := float64(counts[b]) / (float64(total) * width)
		s.Points = append(s.Points, Point{X: lo + float64((float64(b)+0.5)*width), Y: density})
	}
	return s
}

// Mass builds a discrete probability mass function over the integer values
// found in xs (used for the rule-degree distribution of Fig. 3d).
func Mass(name string, xs []float64) Series {
	s := Series{Name: name}
	if len(xs) == 0 {
		return s
	}
	counts := make(map[float64]int)
	for _, x := range xs {
		counts[x]++
	}
	keys := make([]float64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	n := float64(len(xs))
	for _, k := range keys {
		s.Points = append(s.Points, Point{X: k, Y: float64(counts[k]) / n})
	}
	return s
}

// Smooth applies Gaussian-kernel weighted smoothing in log-x space,
// approximating the "weighted spline approximation" the paper uses for
// Fig. 4. bandwidth is in decades of x; points with non-positive X are
// smoothed in linear space instead.
func Smooth(s Series, bandwidth float64) Series {
	if bandwidth <= 0 || len(s.Points) < 3 {
		return s
	}
	logOK := true
	for _, p := range s.Points {
		if p.X <= 0 {
			logOK = false
			break
		}
	}
	coord := func(x float64) float64 {
		if logOK {
			return log10(x)
		}
		return x
	}
	out := Series{Name: s.Name, Points: make([]Point, len(s.Points))}
	for i, pi := range s.Points {
		xi := coord(pi.X)
		var wsum, ysum float64
		for _, pj := range s.Points {
			d := (coord(pj.X) - xi) / bandwidth
			w := gaussian(d)
			wsum += w
			ysum += float64(w * pj.Y)
		}
		out.Points[i] = Point{X: pi.X, Y: ysum / wsum}
	}
	return out
}

func log10(x float64) float64 { return math.Log10(x) }

func gaussian(d float64) float64 { return math.Exp(-0.5 * d * d) }

// RenderTable renders one or more series that share an X axis as an aligned
// text table, the output format of cmd/experiments. Series are sampled at
// the union of X values; missing values render as "-".
func RenderTable(title, xLabel string, series ...Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	xs := make(map[float64]struct{})
	for _, s := range series {
		for _, p := range s.Points {
			xs[p.X] = struct{}{}
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	fmt.Fprintf(&b, "%-14s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteByte('\n')
	lookup := make([]map[float64]float64, len(series))
	for i, s := range series {
		lookup[i] = make(map[float64]float64, len(s.Points))
		for _, p := range s.Points {
			lookup[i][p.X] = p.Y
		}
	}
	for _, x := range sorted {
		fmt.Fprintf(&b, "%-14.4g", x)
		for i := range series {
			if y, ok := lookup[i][x]; ok {
				fmt.Fprintf(&b, " %14.5g", y)
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
