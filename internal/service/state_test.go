package service

import (
	"bytes"
	"reflect"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/durable"
	"hetsched/internal/rng"
)

// stateDrivers is every driver NewDriver builds, with the largest
// shape the state tests give it.
var stateDrivers = []struct {
	kernel, strategy string
	maxN, maxP       int
}{
	{KernelOuter, "random", 12, 6},
	{KernelOuter, "sorted", 12, 6},
	{KernelOuter, "dynamic", 12, 6},
	{KernelOuter, "2phases", 12, 6},
	{KernelMatmul, "random", 5, 6},
	{KernelMatmul, "sorted", 5, 6},
	{KernelMatmul, "dynamic", 5, 6},
	{KernelMatmul, "2phases", 5, 6},
	{KernelCholesky, "random", 7, 5},
	{KernelCholesky, "locality", 7, 5},
	{KernelCholesky, "critpath", 7, 5},
	{KernelLU, "random", 6, 5},
	{KernelLU, "locality", 6, 5},
	{KernelLU, "critpath", 6, 5},
	{KernelQR, "random", 6, 5},
	{KernelQR, "locality", 6, 5},
	{KernelQR, "critpath", 6, 5},
}

// stateDriver builds a driver of q as a Snapshotter.
func stateDriver(tb testing.TB, q CreateRunRequest) core.Driver {
	tb.Helper()
	drv, err := NewDriver(&q)
	if err != nil {
		tb.Fatal(err)
	}
	if _, ok := drv.(core.Snapshotter); !ok {
		tb.Fatalf("%s/%s driver %s is not a core.Snapshotter", q.Kernel, q.Strategy, drv.Name())
	}
	return drv
}

func appendState(d core.Driver) []byte { return d.(core.Snapshotter).AppendState(nil) }

// restored builds a fresh driver of q and restores state into it,
// which must re-encode to the same bytes.
func restored(tb testing.TB, q CreateRunRequest, state []byte) core.Driver {
	tb.Helper()
	d := stateDriver(tb, q)
	if err := d.(core.Snapshotter).RestoreState(state); err != nil {
		tb.Fatalf("restoring a live state: %v", err)
	}
	if again := appendState(d); !bytes.Equal(again, state) {
		tb.Fatalf("restored state re-encodes to %d bytes, not the %d restored", len(again), len(state))
	}
	return d
}

// heldBatch is a grant out on a worker.
type heldBatch struct {
	w  int
	ts []core.Task
}

// stateDifferential drives a live driver of q with a seeded script,
// cuts at a random step, restores the live state into a fresh driver
// and drives the two in lockstep to drain. Of ten script draws six ask
// a random worker for a grant, three complete a random outstanding
// batch and one hands one back (with nothing outstanding all ask). The
// two must grant the same tasks and blocks, agree on ok and on
// Remaining at every step, and hold the same state at drain.
func stateDifferential(t *testing.T, q CreateRunRequest, seed uint64) {
	script := rng.New(seed)
	live := stateDriver(t, q)
	cut := script.Intn(2*live.Total() + 1)
	var twin core.Driver
	var out []heldBatch
	for step := 0; ; step++ {
		drained := live.Remaining() == 0 && len(out) == 0
		if twin == nil && (step == cut || drained) {
			twin = restored(t, q, appendState(live))
		}
		if drained {
			break
		}
		if step > 100*live.Total()+1000 {
			t.Fatalf("%+v: no drain after %d steps", q, step)
		}
		v := script.Uint32()
		op, arg := v%10, int(v/10)
		if len(out) == 0 || op >= 4 {
			w := arg % q.P
			a, ok := live.Next(w)
			if twin != nil {
				if b, tok := twin.Next(w); tok != ok || b.Blocks != a.Blocks || !reflect.DeepEqual(b.Tasks, a.Tasks) {
					t.Fatalf("%+v seed %d step %d (cut %d): Next(%d) = %v %d %v live, %v %d %v restored",
						q, seed, step, cut, w, a.Tasks, a.Blocks, ok, b.Tasks, b.Blocks, tok)
				}
			}
			if !ok && len(out) == 0 {
				t.Fatalf("%+v seed %d step %d: nothing granted, nothing outstanding, %d remaining", q, seed, step, live.Remaining())
			}
			if len(a.Tasks) > 0 {
				out = append(out, heldBatch{w, append([]core.Task(nil), a.Tasks...)})
			}
		} else {
			i := arg % len(out)
			g := out[i]
			out[i] = out[len(out)-1]
			out = out[:len(out)-1]
			for _, d := range []core.Driver{live, twin} {
				switch {
				case d == nil:
				case op == 0:
					d.Reassign(g.w, g.ts)
				default:
					d.Complete(g.w, g.ts)
				}
			}
		}
		if twin != nil && twin.Remaining() != live.Remaining() {
			t.Fatalf("%+v seed %d step %d (cut %d): Remaining %d live, %d restored", q, seed, step, cut, live.Remaining(), twin.Remaining())
		}
	}
	if a, b := appendState(live), appendState(twin); !bytes.Equal(a, b) {
		t.Fatalf("%+v seed %d: drained states differ (%d bytes live, %d restored)", q, seed, len(a), len(b))
	}
}

// stateRequest is the seed's run of driver entry i: a shape up to the
// entry's largest, and for 2phases an explicit β half the time so the
// phase switch falls inside small runs.
func stateRequest(i int, seed uint64) CreateRunRequest {
	e := stateDrivers[i]
	r := rng.New(seed ^ uint64(i)<<32)
	q := CreateRunRequest{Kernel: e.kernel, Strategy: e.strategy, N: 1 + r.Intn(e.maxN), P: 1 + r.Intn(e.maxP), Seed: seed}
	if e.strategy == "2phases" && r.Intn(2) == 0 {
		q.Beta = r.UniformRange(0.2, 3)
	}
	return q
}

// TestDriverStateAgainstLive: a driver restored from a live driver's
// state at a random cut serves exactly what the live one serves from
// there to drain, for every driver NewDriver builds × 200 seeds (20
// under -short).
func TestDriverStateAgainstLive(t *testing.T) {
	seeds := uint64(200)
	if testing.Short() {
		seeds = 20
	}
	for i, e := range stateDrivers {
		t.Run(e.kernel+"/"+e.strategy, func(t *testing.T) {
			for seed := uint64(1); seed <= seeds; seed++ {
				stateDifferential(t, stateRequest(i, seed), seed)
			}
		})
	}
}

// FuzzDriverState feeds arbitrary bytes to RestoreState on a fresh
// driver of every kind: it must never panic, and bytes it accepts must
// re-encode identically and leave a driver that serves a poll per
// worker without panicking. The corpus holds live states of every
// kind at a few cuts.
func FuzzDriverState(f *testing.F) {
	for i := range stateDrivers {
		q := stateRequest(i, 1)
		d := stateDriver(f, q)
		for w := 0; d.Remaining() > 0; w++ {
			if w%7 == 0 {
				f.Add(uint8(i), uint8(q.N-1), uint8(q.P-1), appendState(d))
			}
			a, ok := d.Next(w % q.P)
			if !ok {
				break
			}
			d.Complete(w%q.P, a.Tasks)
		}
		f.Add(uint8(i), uint8(q.N-1), uint8(q.P-1), appendState(d))
	}
	// A switched outer 2phases state that still carries every worker's
	// phase-1 state, as older versions wrote it (testdata/hsn2).
	snap, err := durable.DecodeSnapshot(hsn2Snapshot(f))
	if err != nil {
		f.Fatal(err)
	}
	for i, e := range stateDrivers {
		if e.kernel == hsn2Request.Kernel && e.strategy == hsn2Request.Strategy {
			f.Add(uint8(i), uint8(hsn2Request.N-1), uint8(hsn2Request.P-1), snap.Driver)
		}
	}
	f.Fuzz(func(t *testing.T, entry, n, p uint8, state []byte) {
		e := stateDrivers[int(entry)%len(stateDrivers)]
		q := CreateRunRequest{Kernel: e.kernel, Strategy: e.strategy, N: 1 + int(n)%e.maxN, P: 1 + int(p)%e.maxP, Seed: 1}
		d := stateDriver(t, q)
		if d.(core.Snapshotter).RestoreState(state) != nil {
			return
		}
		if again := appendState(d); !bytes.Equal(again, state) {
			t.Fatalf("%s/%s accepted a state that re-encodes differently:\n in  %x\n out %x", q.Kernel, q.Strategy, state, again)
		}
		for w := 0; w < q.P; w++ {
			d.Next(w)
		}
	})
}
