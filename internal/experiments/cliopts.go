package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hetsched/internal/plot"
	"hetsched/internal/rng"
	"hetsched/internal/speeds"
)

// SimFlags bundles the command-line options shared by the single-run
// simulator binaries (cmd/outersim, cmd/matsim, cmd/choleskysim):
// instance shape, root seed and the platform's speed range. Each
// binary registers its kernel-specific flags (strategy, beta, …) next
// to these.
type SimFlags struct {
	// N is the per-dimension block/tile count.
	N int
	// P is the number of processors.
	P int
	// Seed is the root random seed; platform and scheduler randomness
	// both derive from it via independent splits.
	Seed uint64
	// SMin, SMax bound the uniformly drawn processor speeds.
	SMin, SMax float64
}

// RegisterSimFlags registers the shared -n -p -seed -smin -smax flags
// on fs with the given defaults and returns the bound values, to be
// read after fs.Parse.
func RegisterSimFlags(fs *flag.FlagSet, defN, defP int, nUsage string) *SimFlags {
	f := &SimFlags{}
	fs.IntVar(&f.N, "n", defN, nUsage)
	fs.IntVar(&f.P, "p", defP, "number of processors")
	fs.Uint64Var(&f.Seed, "seed", 1, "random seed")
	fs.Float64Var(&f.SMin, "smin", 10, "minimum speed")
	fs.Float64Var(&f.SMax, "smax", 100, "maximum speed")
	return f
}

// RegisterConfigFlags registers the experiment-harness flags (-seed,
// -reps, -quick, -workers) on fs and returns a Config bound to them,
// to be read after fs.Parse. Used by cmd/hpdc14.
func RegisterConfigFlags(fs *flag.FlagSet) *Config {
	cfg := &Config{}
	fs.Uint64Var(&cfg.Seed, "seed", 1, "root random seed")
	fs.IntVar(&cfg.Reps, "reps", 0, "override replication count (0 = figure default)")
	fs.BoolVar(&cfg.Quick, "quick", false, "shrink problem sizes for a fast smoke run")
	fs.IntVar(&cfg.Workers, "workers", 0, "replication worker goroutines (0 = GOMAXPROCS); results are identical for every value")
	return cfg
}

// Platform derives the run's randomness and platform exactly the way
// every binary did individually: a root rng from the seed, initial
// speeds drawn uniformly from [SMin, SMax] on the first split, and the
// normalized relative speeds. Scheduler rngs should come from further
// root.Split() calls.
func (f *SimFlags) Platform() (root *rng.PCG, init, rel []float64) {
	root = rng.New(f.Seed)
	init = speeds.UniformRange(f.P, f.SMin, f.SMax, root.Split())
	return root, init, speeds.Relative(init)
}

// WriteResultCSV writes res as dir/id.csv, creating dir if needed; it
// is the output-directory helper shared by cmd/hpdc14 and ad-hoc
// experiment scripts.
func WriteResultCSV(dir, id string, res *plot.Result) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, id+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := res.WriteCSV(f); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}
