package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"mstc/internal/channel"
	"mstc/internal/experiment"
	"mstc/internal/geom"
	"mstc/internal/manet"
	"mstc/internal/mobility"
	"mstc/internal/sweep"
	"mstc/internal/topology"
	"mstc/internal/xrand"
)

// A workload is one named input set. Every workload is closed-loop batch
// work: the next pass starts when the previous one has finished.
type workload struct {
	name string
	// prepare derives the options and the task list from the seed; it is
	// the first half of set-up (task enumeration).
	prepare func(seed uint64) (experiment.Options, []experiment.Run, error)
	// execute reports whether passes go through experiment.Execute with a
	// fresh sweep.Store (true) or through one serial manet.Network built
	// directly from the public constructors (false).
	execute bool
	// check runs the workload's self-checks over one pass's results and
	// returns one error per failed run (nil entries for runs that pass).
	check func(tasks []experiment.Run, res []manet.Result) []error
}

// workloads lists the benchmark's workloads by name. The order is the
// order README.md documents them in.
func workloads() []*workload {
	return []*workload{
		{name: "paper-sweep", prepare: paperSweep, execute: true, check: checkPaperSweep},
		{name: "large-n", prepare: largeN, execute: false, check: checkLargeN},
		{name: "routed-traffic", prepare: routedTraffic, execute: true, check: checkRoutedTraffic},
	}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-sweep, large-n or routed-traffic)", name)
}

// Paper-sweep runs are shorter than the paper's 100 s and repeated three
// times: a run's cost depends mostly on its initial placement, so more
// independent placements per pass, not longer runs, keep the cost of a
// pass steady from seed to seed.
const (
	paperSweepDuration = 6
	paperSweepReps     = 3
)

// paperSweep is the paper's 100-node geometry over a slice of the fig9
// task set (buffers {0, 10} with and without view synchronization) plus
// the consistency task set's WeakK=3, Proactive and Reactive mechanisms,
// at speeds {1, 40, 160}.
func paperSweep(seed uint64) (experiment.Options, []experiment.Run, error) {
	o := experiment.DefaultOptions()
	o.Seed = seed
	o.Speeds = []float64{1, 40, 160}
	o.Buffers = []float64{0, 10}
	o.Reps = paperSweepReps
	o.Duration = paperSweepDuration
	o.Workers = runtime.NumCPU()
	tasks, err := experiment.TaskSet("fig9", o)
	if err != nil {
		return o, nil, err
	}
	cons, err := experiment.TaskSet("consistency", o)
	if err != nil {
		return o, nil, err
	}
	for _, t := range cons {
		if t.Mech.WeakK > 0 || t.Mech.Proactive || t.Mech.Reactive {
			tasks = append(tasks, t)
		}
	}
	return o, tasks, nil
}

// Large-n scenario: n nodes at the paper's density (the arena side grows
// with sqrt(n/100) from 900 m), 20 m/s, RNG with a 10 m buffer and view
// synchronization, 10 floods/s on the ideal channel.
const (
	largeNNodes    = 3000
	largeNSpeed    = 20
	largeNDuration = 5
	// largeNConnectivityFloor keeps the benchmark from timing floods
	// that die out: below it the workload no longer exercises forwarding.
	largeNConnectivityFloor = 0.9
)

// largeNOptions returns the large-n scenario scaled to n nodes.
func largeNOptions(seed uint64, n int) experiment.Options {
	o := experiment.DefaultOptions()
	o.Seed = seed
	o.N = n
	o.ArenaSide = 900 * math.Sqrt(float64(n)/100)
	o.Speeds = []float64{largeNSpeed}
	o.Reps = 1
	o.Duration = largeNDuration
	o.Workers = 1
	return o
}

func largeNRun() experiment.Run {
	return experiment.Run{Protocol: "RNG", Speed: largeNSpeed, Mech: manet.Mechanisms{Buffer: 10, ViewSync: true}}
}

func largeN(seed uint64) (experiment.Options, []experiment.Run, error) {
	return largeNOptions(seed, largeNNodes), []experiment.Run{largeNRun()}, nil
}

// routedTraffic is the traffic task-set shape (AODV and OLSR, 8 CBR flows
// at 2 pkt/s, over RNG with a 10 m buffer and view sync and over unit-disk
// "none") at speeds {1, 5, 20}, five repetitions of 20 simulated seconds,
// on a channel with Gilbert–Elliott loss, bounded delay and node churn.
func routedTraffic(seed uint64) (experiment.Options, []experiment.Run, error) {
	o := experiment.DefaultOptions()
	o.Seed = seed
	o.Speeds = []float64{1, 5, 20}
	o.Reps = 5
	o.Duration = 20
	o.Workers = runtime.NumCPU()
	o.Channel = channel.Config{
		Loss:  channel.LossConfig{Model: channel.GilbertElliott, Rate: 0.1},
		Delay: channel.DelayConfig{Max: 0.02},
		Churn: channel.ChurnConfig{MeanUp: 30, MeanDown: 2},
	}
	tasks, err := experiment.TaskSet("traffic", o)
	return o, tasks, err
}

// prepared is a workload brought to its ready-to-run state.
type prepared struct {
	o     experiment.Options
	tasks []experiment.Run
	// Execute workloads: the fresh store the pass journals into.
	store *sweep.Store
	// large-n: the network the pass runs.
	nw *manet.Network
}

// setup brings w from the seed to a ready-to-run state: task enumeration
// plus store creation for the Execute workloads, mobility generation plus
// NewNetwork for large-n. dir is a fresh directory the store may use.
func (w *workload) setup(seed uint64, dir string) (*prepared, error) {
	o, tasks, err := w.prepare(seed)
	if err != nil {
		return nil, err
	}
	p := &prepared{o: o, tasks: tasks}
	if w.execute {
		p.store, err = sweep.Open(dir)
		if err != nil {
			return nil, err
		}
		p.o.Store = p.store
		return p, nil
	}
	p.nw, err = buildNetwork(o, tasks[0], 0)
	return p, err
}

// run executes one pass over the prepared state and returns the results
// in task order. A prepared state runs once.
func (p *prepared) run() ([]manet.Result, error) {
	if p.nw != nil {
		res := p.nw.Run(p.o.Duration)
		p.nw = nil
		return []manet.Result{res}, nil
	}
	return experiment.Execute(p.o, p.tasks)
}

// release drops the prepared state and removes the store directory.
func (p *prepared) release() {
	p.nw = nil
	if p.store != nil {
		os.RemoveAll(p.store.Dir())
		p.store = nil
	}
}

// buildMobility generates task r's trajectories exactly as the experiment
// runner does: paired mobility seeded from (seed, speed, rep).
func buildMobility(o experiment.Options, r experiment.Run) (*mobility.RandomWaypoint, error) {
	lo, hi := mobility.SpeedSetdest(r.Speed)
	seed := xrand.New(o.Seed).Sub('m', uint64(r.Speed*1000), uint64(r.Rep)).Uint64()
	return mobility.NewRandomWaypoint(geom.Square(o.ArenaSide), mobility.WaypointConfig{
		N: o.N, SpeedMin: lo, SpeedMax: hi, Horizon: o.Duration,
	}, xrand.New(seed))
}

// buildConfig is the network configuration the experiment runner derives
// for task r, with the network seed taken from (seed, Run.ConfigKey, rep).
// A non-nil wrap replaces the protocol selector (the traced pass times
// selection through it); results must not change.
func buildConfig(o experiment.Options, r experiment.Run, wrap *selectTimer) (manet.Config, error) {
	ch := o.Channel
	if r.Channel.Enabled() {
		ch = r.Channel
	}
	cfg := manet.Config{
		NormalRange:   o.NormalRange,
		Mech:          r.Mech,
		FloodRate:     o.FloodRate,
		Radio:         o.Radio,
		Channel:       ch,
		SnapshotEvery: o.SnapshotEvery,
		Seed:          networkSeed(o, r),
	}
	if r.Traffic.Enabled() {
		cfg.FloodRate = 0
		cfg.Traffic = r.Traffic
	}
	if r.Mech.WeakK > 0 {
		p, err := topology.WeakByName(r.Protocol, o.NormalRange)
		if err != nil {
			return cfg, err
		}
		cfg.Weak = p
		if wrap != nil {
			cfg.Weak = timedWeak{inner: p, t: wrap}
		}
		return cfg, nil
	}
	p, err := topology.ByName(r.Protocol, o.NormalRange)
	if err != nil {
		return cfg, err
	}
	cfg.Protocol = p
	if wrap != nil {
		cfg.Protocol = timedProtocol{inner: p, t: wrap}
	}
	return cfg, nil
}

// networkSeed is task r's network seed, derived from (seed, ConfigKey, rep).
func networkSeed(o experiment.Options, r experiment.Run) uint64 {
	return xrand.New(o.Seed).Sub('n', r.ConfigKey(), uint64(r.Rep)).Uint64()
}

// freshDir returns a new, empty directory under base.
func freshDir(base, prefix string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}

// workDir is where stores and span files go, relative to the checkout.
func workDir() string { return filepath.Join(".bench_build", "work") }

func checkPaperSweep(tasks []experiment.Run, res []manet.Result) []error {
	errs := make([]error, len(res))
	for i, r := range res {
		switch {
		case r.HelloTx <= 0:
			errs[i] = fmt.Errorf("%s: no Hello transmitted", tasks[i].Desc())
		case r.Floods <= 0 || r.DataTx <= 0:
			errs[i] = fmt.Errorf("%s: no flood scored", tasks[i].Desc())
		case !(r.Connectivity > 0 && r.Connectivity <= 1):
			errs[i] = fmt.Errorf("%s: connectivity %v outside (0, 1]", tasks[i].Desc(), r.Connectivity)
		}
	}
	return errs
}

func checkLargeN(tasks []experiment.Run, res []manet.Result) []error {
	errs := checkPaperSweep(tasks, res)
	for i, r := range res {
		if errs[i] == nil && r.Connectivity < largeNConnectivityFloor {
			errs[i] = fmt.Errorf("large-n: connectivity %.4f below the floor %.2f: floods die out",
				r.Connectivity, largeNConnectivityFloor)
		}
	}
	return errs
}

// checkRoutedTraffic requires every run to send data and every routing
// protocol's control plane to be exercised: AODV runs transmit RREQs, OLSR
// runs transmit TCs, and the pooled pass delivers data and tears at least
// one route down with a RERR.
func checkRoutedTraffic(tasks []experiment.Run, res []manet.Result) []error {
	errs := make([]error, len(res))
	var rerr, delivered int
	for i, r := range res {
		tr := r.Traffic
		rerr += tr.RERRTx
		delivered += tr.Delivered
		switch {
		case tr.Sent <= 0:
			errs[i] = fmt.Errorf("%s: no data sent", tasks[i].Desc())
		case tr.Mode == "aodv" && tr.RREQTx <= 0:
			errs[i] = fmt.Errorf("%s: AODV sent no RREQ", tasks[i].Desc())
		case tr.Mode == "olsr" && tr.TCTx <= 0:
			errs[i] = fmt.Errorf("%s: OLSR sent no TC", tasks[i].Desc())
		case tr.Mode != "aodv" && tr.Mode != "olsr":
			errs[i] = fmt.Errorf("%s: unexpected traffic mode %q", tasks[i].Desc(), tr.Mode)
		}
	}
	if rerr <= 0 || delivered <= 0 {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = fmt.Errorf("routed-traffic: pass delivered %d packets with %d RERRs; both must be > 0", delivered, rerr)
			}
		}
	}
	return errs
}
