package main

import (
	"math"
	"sort"
)

// summary is how a host-clock metric is reported: the median over the
// timed repetitions with its minimum, quartiles and sample count. A run
// holds 5 to a few dozen samples, which supports no higher percentile.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return summary{
		Median: quantile(s, 0.5),
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		N:      len(s),
	}
}

// quantile interpolates linearly between the order statistics of the
// sorted samples.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return summarize(samples).Median }

// gmean is the geometric mean; a non-positive value has no logarithm and
// makes the result NaN, which the caller reports as a failure.
func gmean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return math.NaN()
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}
