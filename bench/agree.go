package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// gate is one end_to_end entry of BENCHMARK.json.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is the part of BENCHMARK.json the bench reads back.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gate `json:"end_to_end"`
	PerLayer []gate `json:"per_layer"`
}

// contractPath is where BENCHMARK.json lies as seen from this package's
// directory, which is where `go run -C bench` and `go test` both run.
const contractPath = "../BENCHMARK.json"

func readContract() (contract, error) {
	var c contract
	raw, err := os.ReadFile(contractPath)
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(raw, &c)
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns: the
// driver computes spreads with it, so the bench does too.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runAgree is the bench's own acceptance test: two interleaved sets of n
// runs of every workload, each run a fresh process with a seed of its own,
// as the driver runs them. It prints a Markdown report and fails when a
// metric's spread within a set, or the distance between the two sets'
// medians, exceeds the metric's bound.
func runAgree(cfg config, n int) error {
	if n < 5 {
		return fmt.Errorf("-agree needs at least 5 runs per set, got %d", n)
	}
	c, err := readContract()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][metric][set] lists that set's runs.
	values := map[string]map[string]*[2][]float64{}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloadNames {
				seed := int64(1 + i + 100*set)
				res, err := runChild(self, cfg, w, seed)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				if values[w] == nil {
					values[w] = map[string]*[2][]float64{}
				}
				for name, m := range res.Metrics {
					if values[w][name] == nil {
						values[w][name] = &[2][]float64{}
					}
					values[w][name][set] = append(values[w][name][set], m.Value)
				}
				fmt.Fprintf(os.Stderr, "agree: run %d/%d set %c %s done\n", i+1, n, 'A'+set, w)
			}
		}
	}

	fmt.Printf("# Agreement of two sets of runs of the same code\n\n")
	fmt.Printf("`go run -C bench repro/bench -agree %d -seconds %g` on %d CPUs (GOMAXPROCS %d), %s, commit %s.\n\n",
		n, cfg.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Printf("Sets A (seeds 1..%d) and B (seeds 101..%d) were run interleaved, every run a fresh process.\n", n, 100+n)
	fmt.Printf("Spread is (Q3-Q1)/median with the quartiles of Python's `statistics.quantiles(v, n=4)`;\n")
	fmt.Printf("it must stay within the bound, and so must |median B - median A| / median A.\n")
	bad := 0
	for _, w := range workloadNames {
		fmt.Printf("\n## %s\n\n", w)
		fmt.Printf("| metric | unit | bound | A median [Q1, Q3] | A spread | B median [Q1, Q3] | B spread | medians differ | verdict |\n")
		fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
		for _, g := range c.EndToEnd {
			sets := values[w][g.Name]
			if sets == nil {
				return fmt.Errorf("%s reported no %s", w, g.Name)
			}
			a1, a2, a3 := quartiles(sets[0][:])
			b1, b2, b3 := quartiles(sets[1][:])
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			differ := math.Abs(b2-a2) / a2
			verdict := "ok"
			if max(differ, spreadA, spreadB) > g.Bound {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("| %s | %s | %.0f%% | %.4g [%.4g, %.4g] | %.1f%% | %.4g [%.4g, %.4g] | %.1f%% | %.1f%% | %s |\n",
				g.Name, g.Unit, 100*g.Bound, a2, a1, a3, 100*spreadA, b2, b1, b3, 100*spreadB, 100*differ, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are outside their bound", bad)
	}
	return nil
}

// runChild runs one untraced workload in a process of its own and parses
// the result from the last line it prints.
func runChild(self string, cfg config, workload string, seed int64) (result, error) {
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, err
	}
	return res, nil
}
