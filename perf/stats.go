package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks: the value at rank q·(n−1) of the
// sorted sample. xs need not be sorted and is not modified. Empty input
// yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	if lo < 0 {
		return s[0]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqr is the distance between the first and third quartiles.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// tailQ is the highest percentile, at most p99, that leaves at least ten
// samples above it in a sample of n; below 11 samples it is the maximum.
func tailQ(n int) float64 {
	if n <= 10 {
		return 1
	}
	return math.Min(0.99, 1-10/float64(n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// slotStats groups latencies by the slot each operation started in and
// returns each slot's 90th percentile and mean, each averaged over the
// slots but the slowest quarter. A shared host's slow spells last seconds
// and slow every request in them, queueing included; with one-second
// slots, a spell over at most a quarter of a run's seconds stays out of
// both, while a change that slows every request shows in full. In
// ten-seed runs on a 2-vCPU virtual machine, this cut serve-cold's spread
// of mean_ms from 50% to 32% while the host was busy, and cost a point
// (4.4% to 5.3%) while it was quiet.
func slotStats(lats []float64, slot []int) (p90, avg float64) {
	groups := map[int][]float64{}
	for i, l := range lats {
		groups[slot[i]] = append(groups[slot[i]], l)
	}
	p90s := make([]float64, 0, len(groups))
	avgs := make([]float64, 0, len(groups))
	for _, g := range groups {
		p90s = append(p90s, quantile(g, 0.9))
		avgs = append(avgs, mean(g))
	}
	return fastMean(p90s), fastMean(avgs)
}

// fastMean is the mean of xs without its largest quarter.
func fastMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return mean(s[:len(s)-len(s)/4])
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// slope is the least-squares slope of y against x.
func slope(x, y []float64) float64 {
	mx, my := mean(x), mean(y)
	var num, den float64
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		den += (x[i] - mx) * (x[i] - mx)
	}
	return num / den
}

// scalingExponent fits log t = a + b·log N over instances, where each
// instance's time is the median of its samples, and returns b with a 95%
// bootstrap band: every resample redraws each instance's samples with
// replacement. rng fixes the resamples, so the band repeats exactly for
// the same samples.
func scalingExponent(sizes []int, samples [][]float64, rng *rand.Rand) (b, lo, hi float64) {
	logN := make([]float64, len(sizes))
	logT := make([]float64, len(sizes))
	for i, n := range sizes {
		logN[i] = math.Log(float64(n))
		logT[i] = math.Log(median(samples[i]))
	}
	b = slope(logN, logT)
	const resamples = 1000
	fits := make([]float64, resamples)
	redraw := make([]float64, 0, 16)
	for r := range fits {
		for i, s := range samples {
			redraw = redraw[:0]
			for range s {
				redraw = append(redraw, s[rng.IntN(len(s))])
			}
			logT[i] = math.Log(median(redraw))
		}
		fits[r] = slope(logN, logT)
	}
	return b, quantile(fits, 0.025), quantile(fits, 0.975)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
