package trace

import (
	"strings"
	"testing"

	"hetsched/internal/outer"
	"hetsched/internal/rng"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

func record(t *testing.T) (*Trace, *sim.Metrics) {
	t.Helper()
	root := rng.New(5)
	const n, p = 30, 4
	s := speeds.UniformRange(p, 10, 100, root.Split())
	model := speeds.NewFixed(s)
	rec := NewRecorder(model)
	m := sim.RunObserved(outer.NewDynamic(n, p, root.Split()), model, rec.Observe)
	return rec.Trace(), m
}

func TestTraceMatchesMetrics(t *testing.T) {
	tr, m := record(t)
	tasks, blocks, busy := tr.PerProc()
	for w := 0; w < tr.P; w++ {
		if tasks[w] != m.TasksPer[w] {
			t.Fatalf("proc %d: trace tasks %d vs metrics %d", w, tasks[w], m.TasksPer[w])
		}
		if blocks[w] != m.BlocksPer[w] {
			t.Fatalf("proc %d: trace blocks %d vs metrics %d", w, blocks[w], m.BlocksPer[w])
		}
		if busy[w] < 0 {
			t.Fatalf("proc %d: negative busy time", w)
		}
	}
	if got, want := tr.Makespan(), m.Makespan; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("trace makespan %g vs metrics %g", got, want)
	}
}

func TestSegmentsDoNotOverlapPerProc(t *testing.T) {
	tr, _ := record(t)
	last := make(map[int]float64)
	for _, s := range tr.Segments {
		if s.Start < last[s.Proc]-1e-9 {
			t.Fatalf("proc %d: segment starting %.6f overlaps previous end %.6f", s.Proc, s.Start, last[s.Proc])
		}
		if s.End < s.Start {
			t.Fatalf("segment ends before it starts: %+v", s)
		}
		last[s.Proc] = s.End
	}
}

func TestGanttRendering(t *testing.T) {
	tr, _ := record(t)
	out := tr.Gantt(40)
	if !strings.Contains(out, "gantt:") {
		t.Fatalf("missing header:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header + P rows + time footer
	if len(lines) != tr.P+2 {
		t.Fatalf("gantt has %d lines, want %d", len(lines), tr.P+2)
	}
	// With demand-driven scheduling every processor is busy most of
	// the run: the busiest glyph must appear.
	if !strings.Contains(out, "█") {
		t.Fatalf("no busy cells rendered:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	tr := &Trace{P: 2}
	if out := tr.Gantt(20); !strings.Contains(out, "empty trace") {
		t.Fatalf("empty trace not handled: %q", out)
	}
}

func TestCommTimelineMonotone(t *testing.T) {
	tr, m := record(t)
	tl := tr.CommTimeline(25)
	prev := 0.0
	for i, v := range tl {
		if v < prev {
			t.Fatalf("comm timeline decreases at %d: %g < %g", i, v, prev)
		}
		prev = v
	}
	if int(tl[len(tl)-1]) != m.Blocks {
		t.Fatalf("final cumulative comm %g, want %d", tl[len(tl)-1], m.Blocks)
	}
}

func TestCommTimelinePanics(t *testing.T) {
	tr := &Trace{P: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("CommTimeline(0) did not panic")
		}
	}()
	tr.CommTimeline(0)
}

func TestGanttSegmentsBeforeZero(t *testing.T) {
	tr := &Trace{P: 2, Segments: []Segment{
		{Proc: 0, Start: -3, End: -1, Tasks: 1},
		{Proc: 1, Start: -1, End: 4, Tasks: 1},
	}}
	out := tr.Gantt(10)
	lines := strings.Split(out, "\n")
	if !strings.Contains(out, "makespan 4.000") || strings.Contains(lines[1], "█") || strings.Count(lines[2], "█") != 10 {
		t.Fatalf("segments before time 0 rendered wrongly:\n%s", out)
	}
}
