package main

import (
	"testing"

	"mstc/internal/experiment"
	"mstc/internal/manet"
)

// The traced rebuild of a task (public constructors plus the timing
// wrapper) must give the result experiment.ComputeRun gives, bit for bit,
// and must time at least one selection. The rebuilds share one tracer on
// two workers, as in a traced pass, so -race sees the sharing.
func TestTimedRebuildMatchesExecute(t *testing.T) {
	o := experiment.DefaultOptions()
	o.Seed = 7
	o.N = 40
	o.ArenaSide = 900 * 0.63 // about the paper's density at 40 nodes
	o.Duration = 6
	mech := manet.Mechanisms{Buffer: 10, ViewSync: true}
	tasks := []experiment.Run{
		{Protocol: "MST", Speed: 40, Mech: mech},
		{Protocol: "RNG", Speed: 40, Mech: mech},
		{Protocol: "SPT-4", Speed: 40, Mech: mech},
		{Protocol: "SPT-2", Speed: 40, Mech: mech, Rep: 1},
		{Protocol: "MST", Speed: 40, Mech: manet.Mechanisms{Buffer: 10, WeakK: 3}},
	}
	tr := newTracer()
	traces := make([]*runTrace, len(tasks))
	selects := make([]*selectTimer, len(tasks))
	results := make([]manet.Result, len(tasks))
	errs := make([]error, len(tasks))
	parallelFor(2, len(tasks), func(i int) {
		traces[i], selects[i], results[i], errs[i] = tracedTask(tr, o, tasks[i], i)
	})
	for i, r := range tasks {
		if errs[i] != nil {
			t.Fatalf("%s: %v", r.Desc(), errs[i])
		}
		want, err := experiment.ComputeRun(o, r)
		if err != nil {
			t.Fatal(err)
		}
		if resultDigest(results[i]) != resultDigest(want) {
			t.Errorf("%s: traced result differs from ComputeRun's\n got %+v\nwant %+v", r.Desc(), results[i], want)
		}
		rt := traces[i]
		if n := countSpans(rt.spans, spanSelect); n == 0 || selects[i].viewSum == 0 {
			t.Errorf("%s: %d selections timed over %d view entries", r.Desc(), n, selects[i].viewSum)
		}
		for _, name := range []string{spanRun, spanMobility, spanNewNetwork, spanManetRun} {
			if countSpans(rt.spans, name) != 1 {
				t.Errorf("%s: want one %s span, got %d", r.Desc(), name, countSpans(rt.spans, name))
			}
		}
		for j, s := range rt.spans {
			if s.End < s.Start || s.Run != int32(i) {
				t.Errorf("%s: span %d (%s) has run %d, [%d, %d]", r.Desc(), j, s.Name, s.Run, s.Start, s.End)
			}
			if s.Name == spanSelect && rt.spans[s.Parent].Name != spanManetRun {
				t.Errorf("%s: select span under %s, want %s", r.Desc(), rt.spans[s.Parent].Name, spanManetRun)
			}
		}
	}
}
