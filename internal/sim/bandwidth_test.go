package sim

import (
	"math"
	"testing"

	"hetsched/internal/flat"
	"hetsched/internal/outer"
	"hetsched/internal/rng"
	"hetsched/internal/speeds"
)

func TestBandwidthInfiniteMatchesOverlapAssumption(t *testing.T) {
	// With infinite bandwidth and no prefetch, requests happen at
	// exactly the same virtual instants as in the overlap-assumption
	// engine, so the two must agree exactly; with prefetch the request
	// order shifts and only the aggregate behavior must match.
	root := rng.New(1)
	const n, p = 40, 5
	s := speeds.UniformRange(p, 10, 100, root.Split())

	base := Run(flat.NewRandom(outer.Kernel, n, p, rng.New(7)), speeds.NewFixed(s))
	bw0 := RunBandwidth(flat.NewRandom(outer.Kernel, n, p, rng.New(7)), speeds.NewFixed(s), math.Inf(1), 0)

	if bw0.Blocks != base.Blocks {
		t.Fatalf("lookahead 0: blocks differ: %d vs %d", bw0.Blocks, base.Blocks)
	}
	if math.Abs(bw0.Makespan-base.Makespan) > 1e-9 {
		t.Fatalf("lookahead 0: makespan %g vs %g", bw0.Makespan, base.Makespan)
	}
	if bw0.LinkBusy != 0 {
		t.Fatalf("infinite bandwidth recorded link busy time %g", bw0.LinkBusy)
	}

	bw1 := RunBandwidth(flat.NewRandom(outer.Kernel, n, p, rng.New(7)), speeds.NewFixed(s), math.Inf(1), 1)
	if rel := math.Abs(float64(bw1.Blocks-base.Blocks)) / float64(base.Blocks); rel > 0.05 {
		t.Fatalf("lookahead 1: blocks %d vs %d (%.1f%% apart)", bw1.Blocks, base.Blocks, 100*rel)
	}
	if rel := math.Abs(bw1.Makespan-base.Makespan) / base.Makespan; rel > 0.02 {
		t.Fatalf("lookahead 1: makespan %g vs %g", bw1.Makespan, base.Makespan)
	}
	_ = root
}

func TestBandwidthProcessesEverything(t *testing.T) {
	root := rng.New(2)
	const n, p = 30, 4
	s := speeds.UniformRange(p, 10, 100, root.Split())
	for _, la := range []int{0, 1, 3} {
		m := RunBandwidth(outer.NewDynamic(n, p, root.Split()), speeds.NewFixed(s), 100, la)
		total := 0
		for _, v := range m.TasksPer {
			total += v
		}
		if total != n*n {
			t.Fatalf("lookahead %d: %d tasks, want %d", la, total, n*n)
		}
	}
}

func TestLowerBandwidthNeverFaster(t *testing.T) {
	root := rng.New(3)
	const n, p = 40, 6
	s := speeds.UniformRange(p, 10, 100, root.Split())
	prev := 0.0
	for _, bw := range []float64{math.Inf(1), 400, 100, 25} {
		m := RunBandwidth(flat.NewRandom(outer.Kernel, n, p, rng.New(11)), speeds.NewFixed(s), bw, 2)
		if m.Makespan < prev-1e-9 {
			t.Fatalf("bandwidth %g gave faster makespan %g than a higher bandwidth (%g)",
				bw, m.Makespan, prev)
		}
		prev = m.Makespan
		_ = root
	}
}

func TestLookaheadHelpsUnderTightBandwidth(t *testing.T) {
	root := rng.New(4)
	const n, p = 40, 6
	s := speeds.UniformRange(p, 10, 100, root.Split())
	sync := RunBandwidth(flat.NewRandom(outer.Kernel, n, p, rng.New(13)), speeds.NewFixed(s), 300, 0)
	pre := RunBandwidth(flat.NewRandom(outer.Kernel, n, p, rng.New(13)), speeds.NewFixed(s), 300, 3)
	if pre.Makespan >= sync.Makespan {
		t.Fatalf("lookahead 3 makespan %g not better than synchronous %g", pre.Makespan, sync.Makespan)
	}
	_ = root
}

func TestSevereBandwidthBoundByLink(t *testing.T) {
	// At very low bandwidth the run is communication-bound: makespan
	// approaches blocks/bandwidth.
	root := rng.New(5)
	const n, p = 30, 4
	s := speeds.UniformRange(p, 10, 100, root.Split())
	const bw = 5.0
	m := RunBandwidth(flat.NewRandom(outer.Kernel, n, p, root.Split()), speeds.NewFixed(s), bw, 2)
	linkTime := float64(m.Blocks) / bw
	if m.Makespan < linkTime-1e-6 {
		t.Fatalf("makespan %g below serialized transfer time %g", m.Makespan, linkTime)
	}
	if m.Makespan > 1.2*linkTime {
		t.Fatalf("makespan %g far above transfer-bound %g despite tiny bandwidth", m.Makespan, linkTime)
	}
}

func TestBandwidthValidation(t *testing.T) {
	root := rng.New(6)
	s := speeds.NewFixed([]float64{1, 1})
	for name, fn := range map[string]func(){
		"bandwidth 0":  func() { RunBandwidth(flat.NewRandom(outer.Kernel, 4, 2, root), s, 0, 1) },
		"lookahead -1": func() { RunBandwidth(flat.NewRandom(outer.Kernel, 4, 2, root), s, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// stalledModel is a fixed platform on which processor 1's speed is v,
// a value that breaks Model's contract.
type stalledModel struct {
	*speeds.Fixed
	v float64
}

func (m stalledModel) Speed(k int) float64 {
	if k == 1 {
		return m.v
	}
	return m.Fixed.Speed(k)
}

// TestNonPositiveSpeedPanics checks that both engines refuse a speed of
// 0, a negative one or NaN by name, instead of timing a batch at +Inf,
// backwards or at NaN.
func TestNonPositiveSpeedPanics(t *testing.T) {
	for _, v := range []float64{0, -1, math.NaN()} {
		model := stalledModel{speeds.NewFixed([]float64{1, 1}), v}
		for name, fn := range map[string]func(){
			"Run":          func() { Run(flat.NewRandom(outer.Kernel, 4, 2, rng.New(7)), model) },
			"RunBandwidth": func() { RunBandwidth(flat.NewRandom(outer.Kernel, 4, 2, rng.New(7)), model, 1, 1) },
		} {
			func() {
				defer func() {
					if r := recover(); r != "sim: non-positive speed" {
						t.Fatalf("%s, speed %v: recovered %v, want the non-positive speed panic", name, v, r)
					}
				}()
				fn()
			}()
		}
	}
}
