package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/rng"
	"hetsched/internal/service"
	"hetsched/internal/sim"
	"hetsched/internal/speeds"
)

// kernelStrategies lists every kernel × strategy the service builds.
var kernelStrategies = []struct{ kernel, strategy string }{
	{"outer", "random"}, {"outer", "sorted"}, {"outer", "dynamic"}, {"outer", "2phases"},
	{"matmul", "random"}, {"matmul", "sorted"}, {"matmul", "dynamic"}, {"matmul", "2phases"},
	{"cholesky", "random"}, {"cholesky", "locality"}, {"cholesky", "critpath"},
	{"lu", "random"}, {"lu", "locality"}, {"lu", "critpath"},
	{"qr", "random"}, {"qr", "locality"}, {"qr", "critpath"},
}

// randomRun draws a run of kernel/strategy from r: its shape, seed and
// (for 2phases, half the time) an explicit beta, and a fixed or drifting
// platform. newDriver and newModel build fresh, identical instances on
// every call.
func randomRun(t *testing.T, kernel, strategy string, drift bool, r *rng.PCG) (newDriver func() core.Driver, newModel func() speeds.Model) {
	req := service.CreateRunRequest{Kernel: kernel, Strategy: strategy, P: 1 + r.Intn(8), Seed: r.Uint64()}
	switch kernel {
	case "outer":
		req.N = 1 + r.Intn(30)
	case "matmul":
		req.N = 1 + r.Intn(10)
	default:
		req.N = 1 + r.Intn(9)
	}
	if strategy == "2phases" && r.Intn(2) == 0 {
		req.Beta = 1 + 4*r.Float64()
	}
	init := speeds.UniformRange(req.P, 10, 100, r.Split())
	driftSeed := r.Uint64()
	newDriver = func() core.Driver {
		drv, err := service.NewDriver(&req)
		if err != nil {
			t.Fatal(err)
		}
		return drv
	}
	newModel = func() speeds.Model {
		if drift {
			return speeds.NewDrift(init, 0.2, rng.New(driftSeed))
		}
		return speeds.NewFixed(init)
	}
	return newDriver, newModel
}

// TestRunDriverMatchesReference runs every kernel × strategy through
// sim.RunDriver and through the reference loop it replaced, on fixed
// and drifting speeds over random shapes, and requires the same ledger,
// makespan, wait time and completion-order schedule.
func TestRunDriverMatchesReference(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 5
	}
	for _, ks := range kernelStrategies {
		for _, drift := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-%s/drift=%v", ks.kernel, ks.strategy, drift), func(t *testing.T) {
				r := rng.New(uint64(len(ks.kernel)*31 + len(ks.strategy)))
				for i := 0; i < seeds; i++ {
					newDriver, newModel := randomRun(t, ks.kernel, ks.strategy, drift, r)
					got := sim.RunDriver(newDriver(), newModel())
					want := sim.RefRunDriver(newDriver(), newModel())
					for _, f := range []struct {
						name      string
						got, want any
					}{
						{"Blocks", got.Blocks, want.Blocks},
						{"BlocksPer", got.BlocksPer, want.BlocksPer},
						{"TasksPer", got.TasksPer, want.TasksPer},
						{"Requests", got.Requests, want.Requests},
						{"Makespan", got.Makespan, want.Makespan},
						{"WaitTime", got.WaitTime, want.WaitTime},
						{"Schedule", got.Schedule, want.Schedule},
					} {
						if !reflect.DeepEqual(f.got, f.want) {
							t.Fatalf("run %d: %s %v, reference %v", i, f.name, f.got, f.want)
						}
					}
				}
			})
		}
	}
}

// countingDriver counts the requests its driver is asked, and those
// asked of it once drained.
type countingDriver struct {
	core.Driver
	calls, drained int
}

func (d *countingDriver) count() {
	d.calls++
	if d.Driver.Remaining() == 0 {
		d.drained++
	}
}

func (d *countingDriver) Next(w int) (core.Assignment, bool) {
	d.count()
	return d.Driver.Next(w)
}

func (d *countingDriver) NextInto(w int, buf core.TaskBuf) (core.Assignment, bool) {
	d.count()
	return d.Driver.(core.BufferedDriver).NextInto(w, buf)
}

func (d *countingDriver) TaskCost(t core.Task) float64 {
	if c, ok := d.Driver.(core.TaskCoster); ok {
		return c.TaskCost(t)
	}
	return 1
}

// TestMasterNeverPollsADrainedDriver counts the master's requests. A
// flat run, whose requests never find nothing schedulable, asks exactly
// once per grant even at p=1000, where most workers find the driver
// drained; and no run of any kernel asks a drained driver.
func TestMasterNeverPollsADrainedDriver(t *testing.T) {
	drv, err := service.NewDriver(&service.CreateRunRequest{Kernel: "outer", Strategy: "dynamic", N: 60, P: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cd := &countingDriver{Driver: drv}
	m := sim.RunDriver(cd, speeds.NewFixed(speeds.UniformRange(1000, 10, 100, rng.New(3))))
	if cd.calls != m.Requests || cd.drained != 0 {
		t.Fatalf("p=1000 flat run: %d requests to the driver (%d of them drained) for %d grants",
			cd.calls, cd.drained, m.Requests)
	}

	r := rng.New(11)
	for _, ks := range kernelStrategies {
		for i := 0; i < 5; i++ {
			newDriver, newModel := randomRun(t, ks.kernel, ks.strategy, i%2 == 1, r)
			cd := &countingDriver{Driver: newDriver()}
			m := sim.RunDriver(cd, newModel())
			if cd.drained != 0 || cd.calls < m.Requests {
				t.Fatalf("%s-%s run %d: %d requests to the driver (%d of them drained) for %d grants",
					ks.kernel, ks.strategy, i, cd.calls, cd.drained, m.Requests)
			}
		}
	}
}
