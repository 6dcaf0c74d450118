package main

import (
	"fmt"
	"runtime"
	"time"

	"mstc/internal/experiment"
	"mstc/internal/manet"
)

// scaleNodes are the node counts of the scale curve, at constant density.
var scaleNodes = []int{100, 300, 1000, 3000}

// parallelDomains is the region-parallel grid the speedup is measured on
// (Domains×Domains spatial domains).
const parallelDomains = 4

type scaleResult struct {
	timeExp float64 // fitted exponent of Network.Run time in n
	heapExp float64 // fitted exponent of the live heap after NewNetwork in n
	speedup float64 // serial ÷ region-parallel Network.Run time at the largest n
}

// scaleCurve runs the large-n scenario serially at every scale point and
// fits time and heap as power laws of n. At the largest n it also runs
// the region-parallel engine and requires a result bit-identical to the
// serial one.
func scaleCurve(seed uint64) (scaleResult, error) {
	var sr scaleResult
	var ns, times, heaps []float64
	var serial time.Duration
	var serialDigest string
	for _, n := range scaleNodes {
		o := largeNOptions(seed, n)
		settle()
		before := heapMB()
		nw, err := buildNetwork(o, largeNRun(), 0)
		if err != nil {
			return sr, err
		}
		heap := heapMB() - before
		t0 := time.Now()
		res := nw.Run(o.Duration)
		d := time.Since(t0)
		fmt.Printf("# scale n %d: run %.3fs heap %.1fMB connectivity %.4f\n", n, d.Seconds(), heap, res.Connectivity)
		ns = append(ns, float64(n))
		times = append(times, d.Seconds())
		heaps = append(heaps, heap)
		serial, serialDigest = d, resultDigest(res)
	}
	sr.timeExp = powerLawExponent(ns, times)
	sr.heapExp = powerLawExponent(ns, heaps)

	o := largeNOptions(seed, scaleNodes[len(scaleNodes)-1])
	settle()
	nw, err := buildNetwork(o, largeNRun(), parallelDomains)
	if err != nil {
		return sr, err
	}
	t0 := time.Now()
	res := nw.Run(o.Duration)
	d := time.Since(t0)
	fmt.Printf("# parallel %dx%d domains, %d workers: run %.3fs (serial %.3fs)\n",
		parallelDomains, parallelDomains, runtime.NumCPU(), d.Seconds(), serial.Seconds())
	sr.speedup = serial.Seconds() / d.Seconds()
	if resultDigest(res) != serialDigest {
		return sr, fmt.Errorf("region-parallel engine (%dx%d) result differs from the serial engine's", parallelDomains, parallelDomains)
	}
	return sr, nil
}

// buildNetwork builds task r's network under o as the experiment runner
// does; domains > 0 selects the region-parallel engine with one worker per
// CPU.
func buildNetwork(o experiment.Options, r experiment.Run, domains int) (*manet.Network, error) {
	model, err := buildMobility(o, r)
	if err != nil {
		return nil, err
	}
	cfg, err := buildConfig(o, r, nil)
	if err != nil {
		return nil, err
	}
	if domains > 0 {
		cfg.Domains = domains
		cfg.ParallelWorkers = runtime.NumCPU()
	}
	return manet.NewNetwork(model, cfg)
}
