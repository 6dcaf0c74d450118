// Command benchmark is the repository's benchmark: it runs one named
// workload closed-loop through the public APIs of experiment, manet,
// mobility and sweep, checks every result it times, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// separate traced run) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-sweep, large-n or routed-traffic")
		seed    = flag.Uint64("seed", 0, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 30, "how long the untraced measurement runs passes")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
		spans   = flag.String("spans", "", "with -trace 1, write the spans here (default .bench_build/spans-<workload>-<seed>.json)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced int, spansPath string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traced)
	}
	p, err := loadPins()
	if err != nil {
		return err
	}
	meta, err := json.Marshal(describeMachine())
	if err != nil {
		return err
	}
	fmt.Printf("# machine %s\n", meta)
	fmt.Printf("# workload %s seed %d (default seed %d, held-out seed %d)\n", w.name, seed, p.DefaultSeed, p.HeldOutSeed)
	c := newChecker(w, seed, p)

	var (
		metrics           map[string]metric
		attempted, failed int
	)
	if traced == 0 {
		tr, err := measure(w, seed, seconds, c)
		if err != nil {
			return err
		}
		for i, ps := range tr.passes {
			kind := "pass"
			if i == 0 {
				kind = "warm-up"
			}
			fmt.Printf("# %s %d: runs %d failed %d setup %.4fs wall %.3fs cpu %.3fs alloc %.1fMB peak rss %.1fMB steal %d ticks\n",
				kind, i, ps.runs, ps.failed, ps.setup.Seconds(), ps.cost.wall.Seconds(), ps.cost.cpu.Seconds(),
				float64(ps.cost.alloc)/(1<<20), ps.peakRSS, ps.cost.steal)
		}
		fmt.Printf("# digest %s\n", tr.digest)
		var per map[string][]float64
		metrics, per = tr.endToEnd()
		attempted, failed = tr.attempted, tr.failed
		printTable(metrics, per, attempted, failed)
	} else {
		if spansPath == "" {
			spansPath = fmt.Sprintf(".bench_build/spans-%s-%d.json", w.name, seed)
		}
		metrics, attempted, failed, err = traceRun(w, seed, c, spansPath)
		if err != nil {
			return err
		}
		printTable(metrics, nil, attempted, failed)
	}
	for _, err := range c.errors {
		fmt.Printf("# FAILED: %v\n", err)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && len(c.errors) == 0, attempted, failed, finite(metrics)})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printTable prints every metric by name with its unit, and for the
// per-pass metrics the quartiles over passes.
func printTable(m map[string]metric, per map[string][]float64, attempted, failed int) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("# %-34s %14s  %-6s %s\n", "metric", "value", "unit", "spread over samples")
	for _, k := range names {
		spread := ""
		if xs := per[k]; len(xs) > 0 {
			q1, _, q3 := quartiles(xs)
			spread = fmt.Sprintf("q1 %.4g q3 %.4g n %d", q1, q3, len(xs))
		}
		fmt.Printf("# %-34s %14.6g  %-6s %s\n", k, m[k].Value, m[k].Unit, spread)
	}
	if _, ok := m["failed_ratio"]; ok {
		return
	}
	ratio := 0.0
	if attempted > 0 {
		ratio = float64(failed) / float64(attempted)
	}
	fmt.Printf("# %-34s %14.6g  %-6s %s\n", "failed_ratio", ratio, "ratio",
		fmt.Sprintf("failed %d of %d attempted runs", failed, attempted))
}

// finite replaces values JSON cannot carry (NaN, ±Inf) by 0 and reports
// them on the human-readable lines instead.
func finite(m map[string]metric) map[string]metric {
	var bad []string
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			bad = append(bad, k)
			v.Value = 0
			m[k] = v
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		fmt.Printf("# not measurable, reported as 0: %s\n", strings.Join(bad, ", "))
	}
	return m
}
