package trace

// PerProc and CommTimeline summarize a Trace; only the tests use them.

import "sort"

// PerProc returns per-processor totals (tasks, blocks, busy time).
func (t *Trace) PerProc() (tasks, blocks []int, busy []float64) {
	tasks = make([]int, t.P)
	blocks = make([]int, t.P)
	busy = make([]float64, t.P)
	for _, s := range t.Segments {
		tasks[s.Proc] += s.Tasks
		blocks[s.Proc] += s.Blocks
		busy[s.Proc] += s.End - s.Start
	}
	return
}

// CommTimeline returns cumulative communication volume sampled at the
// given number of points across the makespan — the shape of the
// master's outgoing traffic over time.
func (t *Trace) CommTimeline(points int) []float64 {
	if points <= 0 {
		panic("trace: non-positive point count")
	}
	segs := append([]Segment(nil), t.Segments...)
	sort.Slice(segs, func(a, b int) bool { return segs[a].Start < segs[b].Start })
	mk := t.Makespan()
	out := make([]float64, points)
	cum := 0.0
	si := 0
	for i := 0; i < points; i++ {
		tp := mk * float64(i+1) / float64(points)
		for si < len(segs) && segs[si].Start <= tp {
			cum += float64(segs[si].Blocks)
			si++
		}
		out[i] = cum
	}
	return out
}
