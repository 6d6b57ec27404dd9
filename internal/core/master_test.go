package core

import (
	"reflect"
	"slices"
	"testing"
)

// fanDriver is a three-task DAG: task 0, whose completion releases
// tasks 1 and 2. It grants any ready task to whoever asks, takes
// reassigned tasks back into the ready set, and records who asked and
// every Reassign call.
type fanDriver struct {
	ready      []Task
	completed  int
	asked      []int
	reassigned []reassignCall
}

type reassignCall struct {
	w  int
	ts []Task
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

func (d *fanDriver) Reassign(w int, ts []Task) {
	d.reassigned = append(d.reassigned, reassignCall{w, append([]Task(nil), ts...)})
	d.ready = append(d.ready, ts...)
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

// TestMasterLedger runs scripts of Serve, Complete and Abandon over
// fanDriver and checks the task ledger after every step: each granted
// task is completed, reclaimed or still held, in total and per worker;
// each per-worker slice sums to its total; an empty Abandon changes
// nothing; and Reassign is called once per non-empty Abandon, with
// exactly the abandoned tasks.
func TestMasterLedger(t *testing.T) {
	const (
		serve = iota
		complete
		abandon
	)
	type step struct {
		op, w int
		ts    []Task // reported or abandoned; ignored by serve
		batch int    // serve's batch target; 0 means 1
	}
	cases := []struct {
		name   string
		script []step
	}{
		{name: "complete every grant", script: []step{
			{op: serve, w: 0},
			{op: complete, w: 0, ts: []Task{0}},
			{op: serve, w: 0},
			{op: serve, w: 1},
			{op: complete, w: 0, ts: []Task{1}},
			{op: complete, w: 1, ts: []Task{2}},
		}},
		{name: "abandon and grant again", script: []step{
			{op: serve, w: 0},
			{op: abandon, w: 0, ts: []Task{0}},
			{op: serve, w: 1},
			{op: complete, w: 1, ts: []Task{0}},
			{op: serve, w: 2},
			{op: abandon, w: 2, ts: []Task{1}},
			{op: serve, w: 0},
			{op: serve, w: 2},
			{op: complete, w: 0, ts: []Task{2}},
			{op: complete, w: 2, ts: []Task{1}},
		}},
		{name: "abandon nothing", script: []step{
			{op: serve, w: 0},
			{op: abandon, w: 0},
			{op: abandon, w: 1, ts: []Task{}},
			{op: complete, w: 0, ts: []Task{0}},
			{op: serve, w: 0},
			{op: serve, w: 2},
			{op: abandon, w: 2},
			{op: complete, w: 0, ts: []Task{1}},
			{op: complete, w: 2, ts: []Task{2}},
		}},
		{name: "abandon part of a batch", script: []step{
			{op: serve, w: 1},
			{op: complete, w: 1, ts: []Task{0}},
			{op: serve, w: 1, batch: 2},
			{op: abandon, w: 1, ts: []Task{2}},
			{op: complete, w: 1, ts: []Task{1}},
			{op: serve, w: 1},
			{op: complete, w: 1, ts: []Task{2}},
		}},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := &fanDriver{ready: []Task{0}}
			m := NewMaster(d)
			held := make([][]Task, d.P())
			var wantCalls []reassignCall
			for i, s := range c.script {
				before := ledgerOf(m)
				calls := len(d.reassigned)
				switch s.op {
				case serve:
					a, st := m.Serve(s.w, max(s.batch, 1), nil)
					if st != Granted {
						t.Fatalf("step %d: worker %d answered %v, want Granted", i, s.w, st)
					}
					held[s.w] = append(held[s.w], a.Tasks...)
				case complete, abandon:
					for _, task := range s.ts {
						k := slices.Index(held[s.w], task)
						if k < 0 {
							t.Fatalf("step %d: script releases task %d, which worker %d does not hold", i, task, s.w)
						}
						held[s.w] = slices.Delete(held[s.w], k, k+1)
					}
					if s.op == complete {
						m.Complete(s.w, s.ts)
						break
					}
					m.Abandon(s.w, s.ts)
					if len(s.ts) == 0 {
						if after := ledgerOf(m); !reflect.DeepEqual(after, before) || len(d.reassigned) != calls {
							t.Fatalf("step %d: empty Abandon moved the ledger %v -> %v or called Reassign", i, before, after)
						}
						break
					}
					wantCalls = append(wantCalls, reassignCall{s.w, s.ts})
				}
				checkLedger(t, i, m, held)
			}
			if !reflect.DeepEqual(d.reassigned, wantCalls) {
				t.Fatalf("Reassign calls %v, want %v", d.reassigned, wantCalls)
			}
			if m.Completed != 3 || d.Remaining() != 0 {
				t.Fatalf("run ends with %d completed, %d remaining", m.Completed, d.Remaining())
			}
		})
	}
}

// ledgerOf copies the master's ledger: its totals, then its per-worker
// slices.
func ledgerOf(m *Master) [][]int {
	return [][]int{
		{m.Requests, m.Assigned, m.Blocks, m.Completed, m.Reclaimed},
		slices.Clone(m.RequestsPer), slices.Clone(m.TasksPer), slices.Clone(m.BlocksPer),
		slices.Clone(m.CompletedPer), slices.Clone(m.ReclaimedPer),
	}
}

// checkLedger asserts that every task m granted is completed,
// reclaimed or held, in total and per worker, and that each per-worker
// slice sums to its total.
func checkLedger(t *testing.T, step int, m *Master, held [][]Task) {
	t.Helper()
	nheld := 0
	for w, ts := range held {
		nheld += len(ts)
		if m.TasksPer[w] != m.CompletedPer[w]+m.ReclaimedPer[w]+len(ts) {
			t.Fatalf("step %d: worker %d granted %d tasks, completed %d, reclaimed %d, holds %d",
				step, w, m.TasksPer[w], m.CompletedPer[w], m.ReclaimedPer[w], len(ts))
		}
	}
	if m.Assigned != m.Completed+m.Reclaimed+nheld {
		t.Fatalf("step %d: assigned %d, completed %d, reclaimed %d, held %d", step, m.Assigned, m.Completed, m.Reclaimed, nheld)
	}
	sum := func(xs []int) (n int) {
		for _, x := range xs {
			n += x
		}
		return n
	}
	for _, c := range []struct {
		name  string
		per   []int
		total int
	}{
		{"requests", m.RequestsPer, m.Requests},
		{"tasks", m.TasksPer, m.Assigned},
		{"blocks", m.BlocksPer, m.Blocks},
		{"completed", m.CompletedPer, m.Completed},
		{"reclaimed", m.ReclaimedPer, m.Reclaimed},
	} {
		if got := sum(c.per); got != c.total {
			t.Fatalf("step %d: per-worker %s %v sum to %d, total is %d", step, c.name, c.per, got, c.total)
		}
	}
}
