package main

import (
	"math"
	"sort"
)

// Metric is one reported number with its unit and the number of samples
// behind it (1 for a count or a ratio of totals).
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// Result is the outcome of one run of one workload.
type Result struct {
	Workload string  `json:"workload"`
	Trace    bool    `json:"trace"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	// MeasuredS is how long the measured ticks of the end-to-end pass
	// took; the run's nominal length is Seconds.
	MeasuredS float64           `json:"measured_s"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Notes are the reasons behind Correct == false.
	Notes []string `json:"notes,omitempty"`
}

func (r *Result) set(name string, v float64, unit string, samples int) {
	if r.Metrics == nil {
		r.Metrics = map[string]Metric{}
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples). It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// quartiles are the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
// With fewer than two samples both are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(p float64) float64 {
		m := float64(len(s) + 1)
		j := int(math.Floor(p * m))
		j = min(max(j, 1), len(s)-1)
		delta := p*m - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
