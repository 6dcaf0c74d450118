package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mstc/internal/manet"
)

// Differential regression for the ideal (zero-value) channel path: every
// result and rendered figure must stay byte-identical across refactors.
// Any drift means the ideal path consumed randomness, reordered draws, or
// changed substream labels, and is a bug — not a baseline to re-pin.
//
// History: the original digests were captured on the commit preceding the
// channel subsystem and survived it unchanged. Three deliberate re-pins
// since:
//
//  1. Flood forwarding moved onto the region-parallel engine: the forward
//     jitter had ridden the root network stream (its position depending on
//     the global chronological transmit order — state no parallel execution
//     can reproduce), and was re-keyed to a pure per-(flood, forwarder,
//     receiver) substream so both engines resolve identical deferrals. That
//     re-keying changes individual jitter values (never their distribution),
//     verified serial == parallel by manet's differential matrix.
//  2. The traffic subsystem extended manet.Result with zero-valued Traffic
//     and Unicast fields. resultsDigest hashes the %#v record form, which
//     prints struct fields by name, so the representation changed while
//     every pre-existing value stayed bit-identical — proven by the Fig6
//     render digest below surviving the same commit unchanged.
//  3. The unicast and epidemic probes became Config workloads driven by
//     Run, which added a zero-valued Epidemic field to manet.Result. The
//     %#v text of every golden result is byte-identical to the previous
//     one once ", Epidemic:manet.EpidemicResult{Delivered:0, MeanDelay:0,
//     Messages:0}" is removed; the Fig6, traffic and routing renders did
//     not move.

const (
	goldenResultsDigest     = "a1a68592c985e3f119f5853a0b576d56e5197981a81305d820280dc042d6aea6"
	goldenFig6Digest        = "f242ebe6c3a814b894a89957acf473157def4e58503965fac317ed714497ccdc"
	goldenConsistencyDigest = "aa4976ee4bcc0462384aa5b680403c0d58289c180c34ac1f5a13bee6af9d9065"
)

func goldenOptions() Options {
	o := DefaultOptions()
	o.N = 40
	o.Reps = 2
	o.Duration = 5
	o.Speeds = []float64{40}
	o.Workers = 4
	return o
}

func goldenTasks() []Run {
	var tasks []Run
	for rep := 0; rep < 2; rep++ {
		tasks = append(tasks,
			Run{Protocol: "RNG", Speed: 40, Rep: rep},
			Run{Protocol: "MST", Speed: 40, Mech: manet.Mechanisms{Buffer: 10, ViewSync: true}, Rep: rep},
			Run{Protocol: "SPT-2", Speed: 40, Mech: manet.Mechanisms{Buffer: 100, PhysicalNeighbors: true}, Rep: rep},
		)
	}
	return tasks
}

func TestIdealChannelResultsBitIdentical(t *testing.T) {
	results, err := Execute(goldenOptions(), goldenTasks())
	if err != nil {
		t.Fatal(err)
	}
	if got := resultsDigest(results); got != goldenResultsDigest {
		t.Errorf("ideal-channel results drifted from the pre-channel golden digest:\n got %s\nwant %s",
			got, goldenResultsDigest)
	}
}

// TestTrafficGoldenDigest pins the complete FigTraffic render (figure,
// .dat series, and per-point table) at a tiny scale. The traffic
// subsystem draws from dedicated substreams ('t' pairs, 'q' jitter), so
// this digest must survive refactors of unrelated subsystems — and any
// traffic-layer change that moves it must be deliberate.
func TestTrafficGoldenDigest(t *testing.T) {
	const goldenTrafficDigest = "dacb4ae312446ef82314b14c4d9ef4e28af826db2fe7b047b8310c6e26cc48df"
	o := goldenOptions()
	o.Duration = 8
	f, tab, err := FigTraffic(o)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(f.String() + "\n" + f.Dat() + "\n" + tab.String()))
	if got := hex.EncodeToString(sum[:]); got != goldenTrafficDigest {
		t.Errorf("FigTraffic render drifted from the golden digest:\n got %s\nwant %s",
			got, goldenTrafficDigest)
	}
}

// TestRoutingGoldenDigest pins the complete FigRouting render for RNG at a
// tiny scale: greedy unicast probes (substream-free endpoint draws on the
// network stream) over the same hello schedule as the flood figures.
func TestRoutingGoldenDigest(t *testing.T) {
	const goldenRoutingDigest = "5d9fdd1db7607fdddd7b10fe7b5eb02e1acfab1e2c349fc6b7e6c86d3077d0c0"
	o := goldenOptions()
	o.Duration = 8
	f, err := FigRouting(o, "RNG")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(f.String() + "\n" + f.Dat()))
	if got := hex.EncodeToString(sum[:]); got != goldenRoutingDigest {
		t.Errorf("FigRouting render drifted from the golden digest:\n got %s\nwant %s",
			got, goldenRoutingDigest)
	}
}

// TestConsistencyGoldenDigest pins every selection mode end to end: the
// reactive (one exact version) and proactive (pinned epoch) strong
// consistency schemes, weak consistency and latest-mode selection with view
// synchronization, at a slow and a fast speed. The digest was captured
// with the since-deleted selection cache on and off alike.
func TestConsistencyGoldenDigest(t *testing.T) {
	o := tinyOptions()
	o.N = 40
	o.Duration = 8
	var tasks []Run
	for _, speed := range []float64{1, 160} {
		tasks = append(tasks, Run{Protocol: "MST", Speed: speed})
		tasks = append(tasks, Run{Protocol: "RNG", Speed: speed, Mech: manet.Mechanisms{Buffer: 10, ViewSync: true}})
		tasks = append(tasks, Run{Protocol: "MST", Speed: speed, Mech: manet.Mechanisms{Reactive: true}})
		tasks = append(tasks, Run{Protocol: "MST", Speed: speed, Mech: manet.Mechanisms{Proactive: true}})
		tasks = append(tasks, Run{Protocol: "MST", Speed: speed, Mech: manet.Mechanisms{WeakK: 3}})
	}
	results, err := Execute(o, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultsDigest(results); got != goldenConsistencyDigest {
		t.Errorf("consistency-mode results drifted from the golden digest:\n got %s\nwant %s",
			got, goldenConsistencyDigest)
	}
}

func TestIdealChannelFig6BitIdentical(t *testing.T) {
	o := goldenOptions()
	o.Duration = 8
	f, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(f.String() + "\n" + f.Dat()))
	if got := hex.EncodeToString(sum[:]); got != goldenFig6Digest {
		t.Errorf("ideal-channel Fig6 render drifted from the pre-channel golden digest:\n got %s\nwant %s",
			got, goldenFig6Digest)
	}
}
