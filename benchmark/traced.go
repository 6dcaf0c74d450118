package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mstc/internal/experiment"
	"mstc/internal/manet"
	"mstc/internal/sweep"
)

// traceRun is the separate traced run behind -trace 1. It makes one
// untraced pass, rebuilds every task through the public constructors with
// spans around each layer call, checks that the rebuilt results are
// bit-identical, replays them into a store, probes the layers a run hides,
// and derives the per-layer metrics. The spans are written to spansPath.
// Attempted counts every untraced and traced run plus the store replay,
// the layer probe and the scale curve, each of which can fail on its own.
func traceRun(w *workload, seed uint64, c *checker, spansPath string) (map[string]metric, int, int, error) {
	o, tasks, err := w.prepare(seed)
	if err != nil {
		return nil, 0, 0, err
	}
	workers := o.Workers
	if workers < 1 {
		workers = 1
	}
	m := map[string]metric{}
	attempted, failed := 0, 0
	fail := func(err error) {
		c.note(err)
		failed++
	}

	// Untraced pass: the reference results and wall time. large-n builds
	// its network inside the pass here, as Execute does per task.
	dir, err := freshDir(workDir(), "store-")
	if err != nil {
		return nil, 0, 0, err
	}
	defer os.RemoveAll(dir)
	settle()
	t0 := time.Now()
	p, err := w.setup(seed, dir)
	if err != nil {
		return nil, 0, 0, err
	}
	if w.execute {
		t0 = time.Now() // Execute builds each task's network itself
	}
	ref, runErr := runPass(p)
	untracedWall := time.Since(t0)
	attempted += len(tasks)
	failed += c.check(tasks, ref, runErr)
	if runErr != nil {
		return nil, 0, 0, fmt.Errorf("untraced pass: %w", runErr)
	}

	// Traced pass, on as many workers as Execute uses.
	settle()
	tr := newTracer()
	traces := make([]*runTrace, len(tasks))
	selects := make([]*selectTimer, len(tasks))
	results := make([]manet.Result, len(tasks))
	errs := make([]error, len(tasks))
	t0 = time.Now()
	parallelFor(workers, len(tasks), func(i int) {
		traces[i], selects[i], results[i], errs[i] = tracedTask(tr, o, tasks[i], i)
	})
	tracedWall := time.Since(t0)
	attempted += len(tasks)
	for i := range tasks {
		switch {
		case errs[i] != nil:
			fail(fmt.Errorf("traced %s: %w", tasks[i].Desc(), errs[i]))
		case resultDigest(results[i]) != resultDigest(ref[i]):
			fail(fmt.Errorf("traced %s: result differs from the untraced run", tasks[i].Desc()))
		case len(traces[i].spans) == 0 || countSpans(traces[i].spans, spanSelect) == 0:
			fail(fmt.Errorf("traced %s: no selection computed", tasks[i].Desc()))
		}
	}
	m["trace.overhead_ratio"] = metric{tracedWall.Seconds() / untracedWall.Seconds(), "ratio"}

	// Per-run, per-layer spans.
	var runMs, mobMs, netMs, manetMs, selUs []float64
	var selBusy, runBusy int64
	var views, nsel int
	for i, rt := range traces {
		if rt == nil {
			continue
		}
		for _, s := range rt.spans {
			switch s.Name {
			case spanRun:
				runMs = append(runMs, float64(s.dur())/1e6)
			case spanMobility:
				mobMs = append(mobMs, float64(s.dur())/1e6)
			case spanNewNetwork:
				netMs = append(netMs, float64(s.dur())/1e6)
			case spanManetRun:
				manetMs = append(manetMs, float64(s.dur())/1e6)
				runBusy += s.dur()
			case spanSelect:
				selUs = append(selUs, float64(s.dur())/1e3)
				selBusy += s.dur()
				nsel++
			}
		}
		views += selects[i].viewSum
	}
	runPct, runTail, runBeyond := tail(runMs)
	fmt.Printf("# tail: experiment.run_ms at p%g, %d of %d runs beyond it\n", runPct, runBeyond, len(runMs))
	var runSum float64
	for _, x := range runMs {
		runSum += x
	}
	m["experiment.run_ms_p50"] = metric{median(runMs), "ms"}
	m["experiment.run_ms_tail"] = metric{runTail, "ms"}
	m["experiment.run_ms_tail_pct"] = metric{runPct, "pct"}
	m["experiment.run_samples"] = metric{float64(len(runMs)), "count"}
	m["experiment.fanout_efficiency"] = metric{runSum / 1e3 / (float64(workers) * untracedWall.Seconds()), "ratio"}
	m["mobility.generate_ms"] = metric{median(mobMs), "ms"}
	m["manet.new_network_ms"] = metric{median(netMs), "ms"}
	m["manet.run_ms"] = metric{median(manetMs), "ms"}
	selPct, selTail, selBeyond := tail(selUs)
	fmt.Printf("# tail: topology.select_us at p%g, %d of %d selections beyond it\n", selPct, selBeyond, len(selUs))
	m["topology.selects_per_run"] = metric{float64(nsel) / float64(len(tasks)), "count"}
	m["topology.select_us_p50"] = metric{median(selUs), "us"}
	m["topology.select_us_tail"] = metric{selTail, "us"}
	m["topology.select_us_tail_pct"] = metric{selPct, "pct"}
	m["topology.view_size_mean"] = metric{float64(views) / float64(max(nsel, 1)), "count"}
	m["topology.select_share"] = metric{float64(selBusy) / float64(max(runBusy, 1)), "ratio"}

	// Store layer: replay the traced results into a fresh store, then
	// resume Execute over it (every task is a hit).
	replayDir, err := freshDir(workDir(), "replay-")
	if err != nil {
		return nil, 0, 0, err
	}
	defer os.RemoveAll(replayDir)
	put, get, bytes, resume, err := replayStore(traces, o, tasks, results, replayDir)
	attempted++
	if err != nil {
		fail(err)
	}
	m["sweep.put_ms_p50"] = metric{median(put), "ms"}
	m["sweep.get_ms_p50"] = metric{median(get), "ms"}
	m["sweep.record_bytes"] = metric{bytes, "B"}
	m["sweep.resume_s"] = metric{resume, "s"}

	// Layers a run hides, probed on the first task.
	settle()
	pr, err := probeLayers(o, tasks[0])
	if err != nil {
		return nil, 0, 0, fmt.Errorf("layer probe: %w", err)
	}
	churn := o.Channel.Churn.Enabled() || tasks[0].Channel.Churn.Enabled()
	attempted++
	if hx := ref[0].HelloTx; pr.beacons != hx && !(churn && pr.beacons > hx) {
		fail(fmt.Errorf("layer probe replayed %d beacons, the run sent %d Hellos", pr.beacons, hx))
	}
	m["hello.observe_ns"] = metric{pr.observeNs, "ns"}
	m["hello.latest_into_ns"] = metric{pr.latestIntoNs, "ns"}
	m["hello.stable_until_ns"] = metric{pr.stableUntilNs, "ns"}
	m["hello.occupancy"] = metric{pr.occupancy, "ratio"}
	m["radio.receivers_at_ns"] = metric{pr.receiversAtNs, "ns"}
	m["radio.receivers_per_call"] = metric{pr.receiversPerCall, "count"}
	m["spatial.within_unsorted_ns"] = metric{pr.withinNs, "ns"}
	m["spatial.hit_ratio"] = metric{pr.hitRatio, "ratio"}
	m["sim.events"] = metric{float64(pr.events), "count"}
	m["sim.self_ns_per_event"] = metric{pr.selfNsPerEvent, "ns"}
	m["mobility.resolve_ns_per_node"] = metric{pr.resolveNsPerNode, "ns"}

	// Heap after set-up of the first task, then the scale curve and the
	// parallel engine on large-n inputs.
	heap, err := heapAfterSetup(o, tasks[0])
	if err != nil {
		return nil, 0, 0, err
	}
	m["manet.heap_after_setup_mb"] = metric{heap, "MB"}
	sc, err := scaleCurve(seed)
	attempted++
	if err != nil {
		fail(err)
	}
	m["manet.scale_exponent_time"] = metric{sc.timeExp, "exp"}
	m["manet.scale_exponent_heap"] = metric{sc.heapExp, "exp"}
	m["manet.parallel_speedup"] = metric{sc.speedup, "ratio"}

	for k, v := range trafficMetrics(ref) {
		m[k] = v
	}
	m["failed_ratio"] = metric{float64(failed) / float64(attempted), "ratio"}

	if err := writeSpans(spansPath, traces); err != nil {
		return nil, 0, 0, err
	}
	fmt.Printf("# spans written to %s\n", spansPath)
	return m, attempted, failed, nil
}

// tracedTask rebuilds task r through the public constructors with a span
// around each layer call: run > {mobility.generate, manet.new_network,
// manet.run > topology.select...}.
func tracedTask(tr *tracer, o experiment.Options, r experiment.Run, i int) (rt *runTrace, st *selectTimer, res manet.Result, err error) {
	rt = tr.newRun(i)
	st = &selectTimer{rt: rt, parent: -1}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panicked: %v", p)
		}
	}()
	root := rt.begin(spanRun, -1)
	s := rt.begin(spanMobility, root)
	model, err := buildMobility(o, r)
	rt.end(s)
	if err != nil {
		return rt, st, res, err
	}
	s = rt.begin(spanNewNetwork, root)
	cfg, err := buildConfig(o, r, st)
	if err != nil {
		return rt, st, res, err
	}
	nw, err := manet.NewNetwork(model, cfg)
	rt.end(s)
	if err != nil {
		return rt, st, res, err
	}
	st.parent = rt.begin(spanManetRun, root)
	res = nw.Run(o.Duration)
	rt.end(st.parent)
	rt.end(root)
	return rt, st, res, nil
}

// parallelFor runs fn(i) for i in [0, n) on the given number of worker
// goroutines and returns when all have finished.
func parallelFor(workers, n int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func countSpans(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// replayStore journals every result into a fresh store with a sweep.put
// span each, reads each back with a sweep.get span, and then times
// Execute over the filled store, where every task is a hit. It returns
// the put and get times (ms), the mean record size and the resume wall.
func replayStore(traces []*runTrace, o experiment.Options, tasks []experiment.Run, results []manet.Result, dir string) (put, get []float64, bytes, resume float64, err error) {
	st, err := sweep.Open(dir)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	fp := o.Fingerprint()
	for i, t := range tasks {
		rt := traces[i]
		k, desc := t.StoreKey(fp), t.Desc()
		s := rt.begin(spanSweepPut, -1)
		perr := st.Put(k, desc, 1, results[i])
		rt.end(s)
		if perr != nil {
			return put, get, 0, 0, perr
		}
		put = append(put, float64(rt.spans[s].dur())/1e6)
		s = rt.begin(spanSweepGet, -1)
		back, ok := st.Get(k, desc)
		rt.end(s)
		if !ok || resultDigest(back) != resultDigest(results[i]) {
			return put, get, 0, 0, fmt.Errorf("store replay: %s did not read back identically", desc)
		}
		get = append(get, float64(rt.spans[s].dur())/1e6)
	}
	var total, files int64
	_ = filepath.WalkDir(filepath.Join(dir, "runs"), func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
				files++
			}
		}
		return nil
	})
	if files > 0 {
		bytes = float64(total) / float64(files)
	}
	o.Store = st
	t0 := time.Now()
	again, err := experiment.Execute(o, tasks)
	resume = time.Since(t0).Seconds()
	if err != nil {
		return put, get, bytes, resume, fmt.Errorf("resume over the filled store: %w", err)
	}
	if passDigest(again) != passDigest(results) {
		return put, get, bytes, resume, fmt.Errorf("resume over the filled store returned different results")
	}
	return put, get, bytes, resume, nil
}

// heapAfterSetup is the live heap one task's mobility and network hold
// once built, in MiB.
func heapAfterSetup(o experiment.Options, r experiment.Run) (float64, error) {
	settle()
	before := heapMB()
	nw, err := buildNetwork(o, r, 0)
	if err != nil {
		return 0, err
	}
	after := heapMB()
	runtime.KeepAlive(nw)
	return after - before, nil
}

// trafficMetrics pools the routed-traffic statistics of a pass; they are
// exact, so a performance change must leave them bit-identical. They read
// 0 on flood workloads.
func trafficMetrics(rs []manet.Result) map[string]metric {
	var sent, delivered, control, rerr int
	var hops float64
	for _, r := range rs {
		t := r.Traffic
		sent += t.Sent
		delivered += t.Delivered
		control += t.RREQTx + t.RREPTx + t.RERRTx + t.TCTx
		rerr += t.RERRTx
		hops += t.AvgHops * float64(t.Delivered)
	}
	m := map[string]metric{
		"traffic.pdr":                      {0, "ratio"},
		"traffic.control_tx_per_delivered": {0, "ratio"},
		"traffic.rerr_tx":                  {float64(rerr), "count"},
		"traffic.hops_mean":                {0, "count"},
	}
	if sent > 0 {
		m["traffic.pdr"] = metric{float64(delivered) / float64(sent), "ratio"}
	}
	if delivered > 0 {
		m["traffic.control_tx_per_delivered"] = metric{float64(control) / float64(delivered), "ratio"}
		m["traffic.hops_mean"] = metric{hops / float64(delivered), "count"}
	}
	return m
}

// writeSpans writes every span, grouped by run, as one JSON document.
func writeSpans(path string, traces []*runTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var all []span
	for _, rt := range traces {
		if rt != nil {
			all = append(all, rt.spans...)
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
