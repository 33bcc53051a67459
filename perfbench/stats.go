package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailLadder is the set of percentiles a tail metric may report, highest
// first, in tenths of a percent (exact integer arithmetic).
var tailLadder = []int{999, 990, 980, 950, 900, 750, 500}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailPct returns the highest percentile of tailLadder that keeps at least
// minBeyond of n samples beyond it, or 0 when even the median does not.
func tailPct(n int) float64 {
	for _, p := range tailLadder {
		if n*(1000-p) >= minBeyond*1000 {
			return float64(p) / 10
		}
	}
	return 0
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (the same rule as numpy's default). xs need not be
// sorted; it is not modified. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a latency statistic (0 for counters).
	N int `json:"n,omitempty"`
}

// report collects the metrics of one run by name.
type report map[string]metric

func (r report) set(name string, v float64, unit string) { r[name] = metric{Value: v, Unit: unit} }

// lat records the median and the given tail percentile of a latency sample
// in milliseconds as <base>_p50_ms and <base>_p<pct>_ms.
func (r report) lat(base string, xs []float64, tail float64) {
	r[base+"_p50_ms"] = metric{Value: median(xs), Unit: "ms", N: len(xs)}
	if tail > 0 {
		r[base+"_p"+pctName(tail)+"_ms"] = metric{Value: percentile(xs, tail), Unit: "ms", N: len(xs)}
	}
}

// pctName renders a percentile for a metric name: 99 → "99", 99.9 → "999".
func pctName(p float64) string {
	return strings.ReplaceAll(strconv.FormatFloat(p, 'f', -1, 64), ".", "")
}
