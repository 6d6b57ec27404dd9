package experiments

import (
	"fmt"
	"sort"

	"hetsched/internal/plot"
)

// Experiment is a named figure generator.
type Experiment struct {
	ID          string
	Description string
	Run         func(Config) *plot.Result
}

// Registry lists every reproducible figure of the paper plus the
// extension experiments, keyed by identifier.
var Registry = map[string]Experiment{
	"fig1":           {"fig1", "outer: random vs data-aware strategies (n=100)", Fig1},
	"fig2":           {"fig2", "outer: two-phase threshold sweep (p=20, n=100)", Fig2},
	"fig4":           {"fig4", "outer: all strategies and analysis (n=100)", Fig4},
	"fig5":           {"fig5", "outer: all strategies and analysis (n=1000)", Fig5},
	"fig6":           {"fig6", "outer: communication vs beta (p=20, n=100)", Fig6},
	"fig7":           {"fig7", "outer: heterogeneity sweep (p=20, n=100)", Fig7},
	"fig8":           {"fig8", "outer: heterogeneity scenarios (p=20, n=100)", Fig8},
	"fig9":           {"fig9", "matrix: all strategies and analysis (n=40)", Fig9},
	"fig10":          {"fig10", "matrix: all strategies and analysis (n=100)", Fig10},
	"fig11":          {"fig11", "matrix: communication vs beta (p=100, n=40)", Fig11},
	"sec36":          {"sec36", "speed-agnostic beta estimation study (§3.6)", Sec36},
	"abl-static":     {"abl-static", "extension: dynamic vs static 7/4 partition", AblationStatic},
	"abl-phase2":     {"abl-phase2", "extension: frozen vs accumulating phase-2 model", AblationPhase2},
	"abl-ode":        {"abl-ode", "extension: mean-field convergence of g(x) to (1−x²)^α", odeOuter.run},
	"abl-robust":     {"abl-robust", "extension: static vs dynamic under misestimated speeds", Robustness},
	"abl-cholesky":   {"abl-cholesky", "extension: dependency-aware scheduling of tiled Cholesky", choleskySweep.run},
	"abl-mapreduce":  {"abl-mapreduce", "extension: data-oblivious MapReduce vs data-aware scheduling", MapReduce},
	"abl-overlap":    {"abl-overlap", "extension: finite master bandwidth and prefetch lookahead", Overlap},
	"abl-ode-matrix": {"abl-ode-matrix", "extension: mean-field convergence of g(x) to (1−x³)^α", odeMatrix.run},
	"abl-perproc":    {"abl-perproc", "extension: per-processor communication prediction vs simulation", PerProcessor},
	"abl-switchtime": {"abl-switchtime", "extension: Lemma 3 — processor-independent switch instant", SwitchTime},
	"abl-lu":         {"abl-lu", "extension: dependency-aware scheduling of tiled LU", luSweep.run},
	"abl-qr":         {"abl-qr", "extension: dependency-aware scheduling of tiled QR (multi-output tasks)", qrSweep.run},
}

// IDs returns all experiment identifiers in a stable order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		// figN sorted numerically, then the rest alphabetically.
		na, oka := figNum(ids[a])
		nb, okb := figNum(ids[b])
		switch {
		case oka && okb:
			return na < nb
		case oka:
			return true
		case okb:
			return false
		default:
			return ids[a] < ids[b]
		}
	})
	return ids
}

func figNum(id string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(id, "fig%d", &n); err == nil {
		return n, true
	}
	return 0, false
}
