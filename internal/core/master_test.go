package core

import (
	"reflect"
	"testing"
)

// fanDriver is a three-task DAG: task 0, whose completion releases
// tasks 1 and 2. It grants any ready task to whoever asks and records
// who asked.
type fanDriver struct {
	ready     []Task
	completed int
	asked     []int
}

func (d *fanDriver) NextInto(w int, buf TaskBuf) (Assignment, bool) {
	d.asked = append(d.asked, w)
	if len(d.ready) == 0 {
		return Assignment{}, false
	}
	t := d.ready[0]
	d.ready = d.ready[1:]
	return Assignment{Tasks: append(buf[:0], t), Blocks: 1}, true
}

func (d *fanDriver) Next(w int) (Assignment, bool) { return d.NextInto(w, nil) }

func (d *fanDriver) Complete(_ int, ts []Task) {
	for _, t := range ts {
		d.completed++
		if t == 0 {
			d.ready = append(d.ready, 1, 2)
		}
	}
}

func (d *fanDriver) Remaining() int { return 3 - d.completed }
func (d *fanDriver) Total() int     { return 3 }
func (d *fanDriver) P() int         { return 3 }
func (d *fanDriver) Name() string   { return "Fan" }

// TestMasterContract steps the master by hand through a run that parks,
// retries and drains: the requester is served before the parked
// workers, the parked workers are retried in index order, and a drained
// driver retires every worker without being asked.
func TestMasterContract(t *testing.T) {
	d := &fanDriver{ready: []Task{0}}
	m := NewMaster(d)
	var got []Status
	serve := func(w int) {
		_, st := m.Serve(w, 1, nil)
		got = append(got, st)
	}
	step := func(w int, ts []Task, want ...Status) {
		t.Helper()
		got = got[:0]
		m.Complete(w, ts)
		serve(w)
		if len(ts) > 0 {
			m.Retry(serve)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("worker %d reporting %v: answers %v, want %v", w, ts, got, want)
		}
	}

	step(0, nil, Granted) // task 0
	step(1, nil, Parked)
	step(2, nil, Parked)
	step(0, []Task{0}, Granted, Granted, Parked) // 0 takes task 1, then 1 takes task 2; 2 stays parked
	step(0, []Task{1}, Parked, Parked, Parked)   // nothing ready: 0 parks, then 0 and 2 are retried
	step(1, []Task{2}, Retired, Retired, Retired)

	if want := []int{0, 1, 2, 0, 1, 2, 0, 0, 2}; !reflect.DeepEqual(d.asked, want) {
		t.Fatalf("driver asked by %v, want %v", d.asked, want)
	}
	if m.Requests != 3 || m.Assigned != 3 || m.Blocks != 3 || !reflect.DeepEqual(m.RequestsPer, []int{2, 1, 0}) ||
		!reflect.DeepEqual(m.TasksPer, []int{2, 1, 0}) || !reflect.DeepEqual(m.BlocksPer, []int{2, 1, 0}) {
		t.Fatalf("ledger: requests %d %v, tasks %d %v, blocks %d %v",
			m.Requests, m.RequestsPer, m.Assigned, m.TasksPer, m.Blocks, m.BlocksPer)
	}
	called := false
	m.Retry(func(int) { called = true })
	if called {
		t.Fatal("a retired worker is still parked")
	}
}
