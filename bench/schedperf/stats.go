package main

import "sort"

// quartiles returns the first quartile, the median and the third quartile
// of xs by the "exclusive" method of Python's statistics.quantiles — the
// method the benchmark's noise floor is stated in. It returns zeros for an
// empty slice.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}
