package core

import "testing"

// stubScheduler serves tasks 0..total-1 one per step, like the random
// flat strategies.
type stubScheduler struct {
	next, total int
}

func (s *stubScheduler) NextInto(w int, buf TaskBuf) (Assignment, bool) {
	if s.next >= s.total {
		return Assignment{}, false
	}
	t := Task(s.next)
	s.next++
	return Assignment{Tasks: append(buf[:0], t), Blocks: 1}, true
}
func (s *stubScheduler) Next(w int) (Assignment, bool) { return s.NextInto(w, nil) }
func (s *stubScheduler) Remaining() int                { return s.total - s.next }
func (s *stubScheduler) Total() int                    { return s.total }
func (s *stubScheduler) P() int                        { return 2 }
func (s *stubScheduler) Name() string                  { return "Stub" }

// TestSchedulerDriverRequeue pins the host-level requeue that backs
// lease reclamation for the flat kernels: reassigned tasks are served
// again — oldest first, one per step, before the scheduler advances —
// and count toward Remaining until they are handed back out.
func TestSchedulerDriverRequeue(t *testing.T) {
	d := NewSchedulerDriver(&stubScheduler{total: 4})

	a0, _ := d.Next(0)
	a1, _ := d.Next(0)
	if a0.Tasks[0] != 0 || a1.Tasks[0] != 1 {
		t.Fatalf("scheduler served %v then %v", a0.Tasks, a1.Tasks)
	}
	if d.Remaining() != 2 {
		t.Fatalf("Remaining = %d after two grants, want 2", d.Remaining())
	}

	// Worker 0 dies holding tasks 0 and 1; they come back in grant
	// order, before the scheduler's own task 2, with no block charge
	// (the flat schedulers cannot replay their placement bookkeeping).
	d.Reassign(0, []Task{a0.Tasks[0], a1.Tasks[0]})
	if d.Remaining() != 4 {
		t.Fatalf("Remaining = %d after reassign, want 4", d.Remaining())
	}
	var buf TaskBuf
	for i, want := range []Task{0, 1, 2, 3} {
		a, ok := d.NextInto(1, buf)
		if !ok || len(a.Tasks) != 1 || a.Tasks[0] != want {
			t.Fatalf("step %d: got %+v ok=%v, want task %d", i, a, ok, want)
		}
		if want < 2 && a.Blocks != 0 {
			t.Fatalf("requeued task %d charged %d blocks, want 0", want, a.Blocks)
		}
		buf = a.Tasks
	}
	if _, ok := d.Next(1); ok {
		t.Fatal("drained driver still serving")
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d after drain, want 0", d.Remaining())
	}
}
