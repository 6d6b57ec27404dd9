// Package trace records the timeline of a run — who was assigned what,
// when, and how much data it cost — and renders it as a text Gantt
// chart. A simulated run's Recorder plugs into the simulator through
// sim.RunObserved; a served run keeps its timeline as a Log.
package trace

import (
	"fmt"
	"strings"

	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

// Segment is one assignment as seen by the trace: worker w received
// Tasks tasks and Blocks blocks at virtual time Start and finished the
// batch at End. The JSON tags are part of the schedd wire format
// (GET /v1/runs/{id}/trace).
type Segment struct {
	Proc   int     `json:"proc"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Tasks  int     `json:"tasks"`
	Blocks int     `json:"blocks"`
}

// Trace is a recorded run.
type Trace struct {
	P        int       `json:"p"`
	Segments []Segment `json:"segments"`
}

// Recorder accumulates a Trace from simulator observations. Because
// the simulator reports the assignment instant and the engine computes
// durations from the speed model, the recorder re-derives batch end
// times from the model itself.
type Recorder struct {
	model   speeds.Model
	trace   *Trace
	pending []float64 // per-proc clock
}

// NewRecorder returns a recorder for a platform model. The recorder's
// Observe must be passed to sim.RunObserved with the same model.
func NewRecorder(model speeds.Model) *Recorder {
	return &Recorder{
		model:   model,
		trace:   &Trace{P: model.P()},
		pending: make([]float64, model.P()),
	}
}

// Observe implements the sim.RunObserved callback.
//
// Note: for dynamic speed models the durations recorded here re-drive
// the model's drift, so pair a Recorder only with static models or
// accept approximate segment lengths.
func (r *Recorder) Observe(o sim.Observation) {
	dur := 0.0
	if n := len(o.Assignment.Tasks); n > 0 {
		dur = float64(n) / r.model.Speed(o.Proc)
	}
	r.trace.Segments = append(r.trace.Segments, Segment{
		Proc:   o.Proc,
		Start:  o.Time,
		End:    o.Time + dur,
		Tasks:  len(o.Assignment.Tasks),
		Blocks: o.Assignment.Blocks,
	})
}

// Trace returns the recorded trace.
func (r *Recorder) Trace() *Trace { return r.trace }

// Makespan returns the latest segment end.
func (t *Trace) Makespan() float64 {
	worst := 0.0
	for _, s := range t.Segments {
		if s.End > worst {
			worst = s.End
		}
	}
	return worst
}

// Gantt renders the trace as a text chart with one row per processor
// and width time buckets; each cell shows how busy the processor was
// during the bucket (' ' idle, '░' <50%, '▒' <90%, '█' ≥90%).
func (t *Trace) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	mk := t.Makespan()
	if mk == 0 {
		return "(empty trace)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "gantt: %d processors, makespan %.3f, %d assignments\n", t.P, mk, len(t.Segments))

	// Bucket busy-time per processor.
	busy := make([][]float64, t.P)
	for p := range busy {
		busy[p] = make([]float64, width)
	}
	bucket := mk / float64(width)
	for _, s := range t.Segments {
		if s.End <= s.Start {
			continue
		}
		// A served run recovered on a clock behind its start has
		// segments before time 0; the chart starts at 0.
		first := max(int(s.Start/bucket), 0)
		last := int(s.End / bucket)
		if last >= width {
			last = width - 1
		}
		for b := first; b <= last; b++ {
			lo := float64(b) * bucket
			hi := lo + bucket
			overlap := minF(hi, s.End) - maxF(lo, s.Start)
			if overlap > 0 {
				busy[s.Proc][b] += overlap
			}
		}
	}
	for p := 0; p < t.P; p++ {
		fmt.Fprintf(&sb, "P%-3d |", p)
		for b := 0; b < width; b++ {
			frac := busy[p][b] / bucket
			switch {
			case frac < 0.05:
				sb.WriteByte(' ')
			case frac < 0.5:
				sb.WriteRune('░')
			case frac < 0.9:
				sb.WriteRune('▒')
			default:
				sb.WriteRune('█')
			}
		}
		sb.WriteString("|\n")
	}
	fmt.Fprintf(&sb, "time: 0 .. %.3f\n", mk)
	return sb.String()
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
