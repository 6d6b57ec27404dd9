package main

import (
	"math"
	"sort"
)

// summary is how every timing is reported: the sample count, the median
// and the quartiles around it.
type summary struct {
	N           int
	Q1, Med, Q3 float64
}

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func summarize(vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{N: len(s), Q1: quantile(s, 0.25), Med: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

func median(vals []float64) float64 { return summarize(vals).Med }

// quiet is the decile of vals on the good side: the ninth of a metric
// where higher is better, the first otherwise. The reference box shares
// its cores and caches with other guests, which only ever slows a sample
// down, for seconds at a time and at times for most of a run; the median
// of a run's samples follows the share of the run that was disturbed,
// this decile follows the program.
func quiet(vals []float64, higher bool) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if higher {
		return quantile(s, 0.9)
	}
	return quantile(s, 0.1)
}

// sample is one answered poll: when its response was fully read
// (nanoseconds since the phase started) and how long it took.
type sample struct {
	end int64
	lat int64
}

// pollStats holds one value per slice of a timed poll phase for each
// poll metric.
type pollStats struct {
	rate, p50, p99 []float64 // 1/s, ns, ns
}

func (st *pollStats) add(lats []float64, wallNS int64) {
	sort.Float64s(lats)
	st.rate = append(st.rate, float64(len(lats))/(float64(wallNS)/1e9))
	st.p50 = append(st.p50, quantile(lats, 0.5))
	st.p99 = append(st.p99, quantile(lats, 0.99))
}

// reduceUnits reduces closed loops to one rate and two percentiles per
// unit, for the report to print next to quietTenth's values.
func reduceUnits(res []connResult) pollStats {
	var out pollStats
	var lats []float64
	for _, r := range res {
		for _, u := range r.units {
			lats = lats[:0]
			for _, x := range r.log[u.lo:u.hi] {
				lats = append(lats, float64(x.lat))
			}
			out.add(lats, u.wall)
		}
	}
	return out
}

// quietTenth reduces closed loops to the three poll metrics: of every
// class of units it takes the tenth with the highest rate, at least
// three, and pools their polls. The rate is those polls over those
// units' wall time, the percentiles are the pooled polls'. It is quiet's
// idea with one selection for all three numbers; taking a tenth of each
// class keeps the mix of early and late polls a whole run has.
func quietTenth(res []connResult) (rate, p50, p99 float64) {
	type ref struct {
		log  []sample
		wall int64
	}
	classes := map[int][]ref{}
	for _, r := range res {
		for _, u := range r.units {
			classes[u.class] = append(classes[u.class], ref{r.log[u.lo:u.hi], u.wall})
		}
	}
	var lats []float64
	var wall int64
	for _, units := range classes {
		sort.Slice(units, func(i, j int) bool {
			return float64(len(units[i].log))/float64(units[i].wall) > float64(len(units[j].log))/float64(units[j].wall)
		})
		for _, u := range units[:min(len(units), max(3, (len(units)+5)/10))] {
			wall += u.wall
			for _, s := range u.log {
				lats = append(lats, float64(s.lat))
			}
		}
	}
	sort.Float64s(lats)
	return float64(len(lats)) / (float64(wall) / 1e9), quantile(lats, 0.5), quantile(lats, 0.99)
}

// segments is the number of equal-count slices the open loop is cut
// into; a rate or percentile is the median of the per-segment values.
const segments = 10

// reduceSegments cuts a sample log, which is in completion order, into
// k equal-count segments and reduces each to a rate and two percentiles.
// A segment's wall time runs from the previous segment's last completion
// (the phase start for the first) to its own last completion.
func reduceSegments(log []sample, k int) pollStats {
	var out pollStats
	total := len(log)
	if total < k {
		k = total
	}
	lats := make([]float64, 0, total/max(k, 1)+1)
	prevEnd := int64(0)
	for s := 0; s < k; s++ {
		seg := log[s*total/k : (s+1)*total/k]
		lats = lats[:0]
		for _, x := range seg {
			lats = append(lats, float64(x.lat))
		}
		end := seg[len(seg)-1].end
		out.add(lats, end-prevEnd)
		prevEnd = end
	}
	return out
}
