package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"mstc/internal/experiment"
	"mstc/internal/manet"
)

// pins records the benchmark's default and held-out seeds and, for the
// default seed, each workload's pass digest. Every self-check except the
// pinned digest must pass on both seeds.
type pins struct {
	DefaultSeed uint64            `json:"default_seed"`
	HeldOutSeed uint64            `json:"held_out_seed"`
	Digests     map[string]string `json:"digests"`
}

//go:embed pins.json
var pinsJSON []byte

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

const (
	// minPasses is the fewest passes a run makes, even past its time
	// budget: one warm-up pass, whose first touch of fresh memory and
	// caches is not timed, and three timed passes, so that the per-pass
	// medians drop one disturbed pass.
	minPasses = 4
	// executeSetupReps is how many extra set-ups the Execute workloads
	// time after every pass: their set-up takes well under a millisecond,
	// so a steady median needs more samples than the passes give, spread
	// over the whole run rather than taken at one moment.
	executeSetupReps = 15
)

// pass is one timed pass of a workload.
type pass struct {
	setup   time.Duration
	cost    passCost
	runs    int
	failed  int
	peakRSS float64 // MiB, over the pass's set-up and run
}

// checker applies every correctness check to the passes of one run: the
// workload's self-checks, per-run digests equal to the first pass's, and
// on the default seed the pinned pass digest.
type checker struct {
	w      *workload
	pin    string // pinned pass digest; "" when the seed is not the default
	ref    []string
	errors []error // the first few failures, for the report
}

// check returns how many of the pass's runs failed.
func (c *checker) check(tasks []experiment.Run, res []manet.Result, runErr error) int {
	if runErr != nil {
		c.note(runErr)
		return len(tasks)
	}
	if len(res) != len(tasks) {
		c.note(fmt.Errorf("%d results for %d tasks", len(res), len(tasks)))
		return len(tasks)
	}
	bad := make([]bool, len(res))
	for i, err := range c.w.check(tasks, res) {
		if err != nil {
			bad[i] = true
			c.note(err)
		}
	}
	digests := make([]string, len(res))
	for i, r := range res {
		digests[i] = resultDigest(r)
	}
	if c.ref == nil {
		c.ref = digests
	}
	for i := range res {
		if digests[i] != c.ref[i] {
			bad[i] = true
			c.note(fmt.Errorf("%s: result digest %.12s differs from the first pass's %.12s", tasks[i].Desc(), digests[i], c.ref[i]))
		}
	}
	if c.pin != "" {
		if d := passDigest(res); d != c.pin {
			c.note(fmt.Errorf("%s: pass digest %s, pinned %s", c.w.name, d, c.pin))
			for i := range bad {
				bad[i] = true
			}
		}
	}
	n := 0
	for _, b := range bad {
		if b {
			n++
		}
	}
	return n
}

// note keeps a failure for the report: the first few distinct ones.
func (c *checker) note(err error) {
	for _, e := range c.errors {
		if e.Error() == err.Error() {
			return
		}
	}
	if len(c.errors) < 8 {
		c.errors = append(c.errors, err)
	}
}

func newChecker(w *workload, seed uint64, p pins) *checker {
	c := &checker{w: w}
	if seed == p.DefaultSeed {
		c.pin = p.Digests[w.name]
	}
	return c
}

// runPass executes a prepared pass, turning a panic into an error.
func runPass(p *prepared) (res []manet.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pass panicked: %v", r)
		}
	}()
	return p.run()
}

// timedResult is the outcome of the untraced measurement.
type timedResult struct {
	passes    []pass    // passes[0] is the warm-up pass
	setups    []float64 // seconds, every set-up timed after the warm-up's
	attempted int
	failed    int
	digest    string // the first pass's pass digest
}

// measure runs the workload closed-loop for the given time (and at least
// minPasses passes) with tracing off. Each pass starts from a fresh
// set-up; the set-up is timed on its own and is not part of the pass. The
// first pass warms up: it is checked like every other pass, but neither
// it nor its set-up enters the metrics.
func measure(w *workload, seed uint64, seconds float64, c *checker) (*timedResult, error) {
	tr := &timedResult{}
	start := time.Now()
	for len(tr.passes) < minPasses || time.Since(start).Seconds() < seconds {
		dir, err := freshDir(workDir(), "store-")
		if err != nil {
			return nil, err
		}
		settle()
		resetPeakRSS()
		t0 := time.Now()
		p, err := w.setup(seed, dir)
		setup := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		settle()
		a := sampleHost()
		res, runErr := runPass(p)
		b := sampleHost()
		ps := pass{setup: setup, cost: costBetween(a, b), runs: len(p.tasks), peakRSS: peakRSSMB()}
		p.release()
		ps.failed = c.check(p.tasks, res, runErr)
		if runErr == nil && tr.digest == "" {
			tr.digest = passDigest(res)
		}
		if len(tr.passes) > 0 {
			tr.setups = append(tr.setups, setup.Seconds())
		}
		tr.passes = append(tr.passes, ps)
		tr.attempted += ps.runs
		tr.failed += ps.failed
		if w.execute {
			for i := 0; i < executeSetupReps; i++ {
				d, err := timedSetup(w, seed)
				if err != nil {
					return nil, err
				}
				tr.setups = append(tr.setups, d.Seconds())
			}
		}
	}
	return tr, nil
}

// timedSetup times one set-up and releases it.
func timedSetup(w *workload, seed uint64) (time.Duration, error) {
	dir, err := freshDir(workDir(), "setup-")
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	p, err := w.setup(seed, dir)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	p.release()
	return d, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics from the timed passes: each
// speed metric is the median over passes, so one disturbed pass does not
// move it.
func (tr *timedResult) endToEnd() (map[string]metric, map[string][]float64) {
	per := map[string][]float64{}
	for _, p := range tr.passes[1:] {
		runs := float64(p.runs)
		per["runs_per_s"] = append(per["runs_per_s"], runs/p.cost.wall.Seconds())
		per["cpu_ms_per_run"] = append(per["cpu_ms_per_run"], float64(p.cost.cpu.Microseconds())/1000/runs)
		per["alloc_mb_per_run"] = append(per["alloc_mb_per_run"], float64(p.cost.alloc)/(1<<20)/runs)
		per["peak_rss_mb"] = append(per["peak_rss_mb"], p.peakRSS)
	}
	per["setup_s"] = tr.setups
	m := map[string]metric{
		"runs_per_s":       {median(per["runs_per_s"]), "1/s"},
		"cpu_ms_per_run":   {median(per["cpu_ms_per_run"]), "ms"},
		"setup_s":          {median(per["setup_s"]), "s"},
		"peak_rss_mb":      {median(per["peak_rss_mb"]), "MB"},
		"alloc_mb_per_run": {median(per["alloc_mb_per_run"]), "MB"},
	}
	return m, per
}
