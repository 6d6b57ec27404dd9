package hetsched

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// quantity is a measured number: digits, an optional k or M, and one
// of the units a timing, a size, a share, a factor or a rate is given
// in.
var quantity = regexp.MustCompile(`\d(?:[\d,.]*\d)?\s?[kM]?(?:(?:ns|µs|ms|s|MB|KB|B)\b|%|×|/s\b)`)

// testFunc is a name a test, benchmark or fuzz function may have.
var testFunc = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)

// codeSpan is a fenced block or an inline code span.
var codeSpan = regexp.MustCompile("(?s)```.*?```|`[^`]*`")

// TestDocsCite holds README.md and DESIGN.md to the rule that a number
// is only as good as what measures it: every paragraph that gives a
// measured quantity outside code must name a metric BENCHMARK.json
// declares, or a Test, Benchmark or Fuzz function that exists. Code is
// skipped for the quantity (a flag value such as -lease 30s claims
// nothing) but read for the citation.
func TestDocsCite(t *testing.T) {
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var metrics []string
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metrics = append(metrics, m.Name)
	}

	funcs := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	cites := func(para string) bool {
		for _, m := range metrics {
			if strings.Contains(para, m) {
				return true
			}
		}
		for _, f := range testFunc.FindAllString(para, -1) {
			if funcs[f] {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Fenced blocks may hold blank lines: blank them out of the
		// quantity scan before splitting into paragraphs.
		plain := codeSpan.ReplaceAllStringFunc(string(text), func(code string) string {
			return strings.Map(func(r rune) rune {
				if r == '\n' {
					return r
				}
				return ' '
			}, code)
		})
		line := 1
		paras, plains := strings.Split(string(text), "\n\n"), strings.Split(plain, "\n\n")
		for i, para := range paras {
			if q := quantity.FindString(plains[i]); q != "" && !cites(para) {
				t.Errorf("%s:%d: %q is measured, and the paragraph cites no BENCHMARK.json metric and no existing Test, Benchmark or Fuzz function",
					doc, line, q)
			}
			line += strings.Count(para, "\n") + 2
		}
	}
}

// TestCIRunsEveryCheck holds ci.yml to the rule that a check the
// repository declares is a check CI runs: every Fuzz function is fuzzed
// by a `go test … -fuzz <name> … <package>` step, and every package
// with a Benchmark function is named by a `go test … -bench` step. A
// `-fuzz` line also bounds minimization with `-fuzzminimizetime`: Go's
// default spends up to 60 s minimizing the first new input, which
// would leave a short run almost no time to search.
func TestCIRunsEveryCheck(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	fuzzed, benched := map[string]bool{}, map[string]bool{} // "Fuzz… ./pkg", "./pkg"
	for _, line := range strings.Split(string(ci), "\n") {
		fields := strings.Fields(line)
		if i := slices.Index(fields, "test"); i < 1 || fields[i-1] != "go" {
			continue
		}
		var pkgs []string
		for _, f := range fields {
			if strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		if i := slices.Index(fields, "-fuzz"); i >= 0 && i+1 < len(fields) {
			if !slices.Contains(fields, "-fuzzminimizetime") {
				t.Errorf("ci.yml fuzzes %s with no -fuzzminimizetime bound", fields[i+1])
			}
			for _, p := range pkgs {
				fuzzed[strings.Trim(fields[i+1], `'"^$`)+" "+p] = true
			}
		}
		if slices.Contains(fields, "-bench") {
			for _, p := range pkgs {
				benched[p] = true
			}
		}
	}

	decl := regexp.MustCompile(`(?m)^func ((Benchmark|Fuzz)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		for _, m := range decl.FindAllSubmatch(src, -1) {
			name := string(m[1])
			switch {
			case string(m[2]) == "Fuzz" && !fuzzed[name+" "+pkg]:
				t.Errorf("%s: ci.yml never fuzzes %s in %s", path, name, pkg)
			case string(m[2]) == "Benchmark" && !benched[pkg]:
				t.Errorf("%s: ci.yml never runs the benchmarks of %s (%s among them)", path, pkg, name)
				benched[pkg] = true // one error per package
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
