package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantileSorted interpolates the q-quantile of an ascending sample the
// way Python's statistics.quantiles(method="exclusive") does, so the
// quartiles printed here are the ones the driver computes from them.
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	return quantileSorted(s, 0.25), quantileSorted(s, 0.5), quantileSorted(s, 0.75)
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// midmean is the mean of the middle half of the sample: like the median
// it ignores both tails, but it does not hang on the two middle values
// when the sample is small and spread out.
func midmean(xs []float64) float64 {
	s := sorted(xs)
	lo, hi := len(s)/4, len(s)-len(s)/4
	return mean(s[lo:hi])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// iqrRatio is the interquartile distance as a share of the median: the
// spread figure the benchmark contract gates on.
func iqrRatio(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to be worth printing.
const tailSamples = 10

// tailPercentile returns the highest percentile not above want that
// still has at least tailSamples samples beyond it, and its value. With
// too few samples for any tail it falls back to the median.
func tailPercentile(xs []float64, want float64) (pct, value float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, math.NaN()
	}
	if n <= tailSamples {
		return 0.5, quantileSorted(s, 0.5)
	}
	idx := int(math.Ceil(want*float64(n))) - 1
	if limit := n - 1 - tailSamples; idx > limit {
		idx = limit
	}
	if idx < 0 {
		idx = 0
	}
	return float64(idx+1) / float64(n), s[idx]
}

// hostFactor converts a time measured while the calibration kernel ran
// at calibMBps into the time the reference host (refMBps) would have
// shown: a host running at 0.8x the reference speed stretches every
// slice by 1/0.8, so its times are multiplied by 0.8 (and its rates
// divided by it).
func hostFactor(calibMBps, refMBps float64) float64 {
	if calibMBps <= 0 || refMBps <= 0 {
		return 1
	}
	return calibMBps / refMBps
}

// perOpNet subtracts the harness's own per-operation cost (measured with
// an empty operation) from a total and divides by the operation count.
func perOpNet(total, harnessPerOp float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	v := total/float64(ops) - harnessPerOp
	if v < 0 {
		return 0
	}
	return v
}
