package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a percentile resting on fewer tail samples is noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// the number of samples strictly beyond its rank. It fails when fewer
// than minBeyond samples lie beyond, so p90 needs at least 100 samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", 100*q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	s := sortedCopy(xs)
	return s[rank-1], nil
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2, Q3 with the "exclusive" method of Python's
// statistics.quantiles(xs, n=4), the rule the benchmark's spread is
// judged by.
func quartiles(xs []float64) ([3]float64, error) {
	var q [3]float64
	ld := len(xs)
	if ld < 2 {
		return q, fmt.Errorf("quartiles need at least 2 samples, got %d", ld)
	}
	s := sortedCopy(xs)
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q, nil
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) (float64, error) {
	q, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q[1] == 0 {
		return 0, fmt.Errorf("spread of samples with median 0")
	}
	return (q[2] - q[0]) / math.Abs(q[1]), nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
