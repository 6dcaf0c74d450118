package manet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/mobility"
	"mstc/internal/topology"
)

// runEpidemic runs cfg with the epidemic workload ec for duration seconds.
func runEpidemic(t *testing.T, model mobility.Model, cfg Config, duration float64, ec EpidemicConfig) EpidemicResult {
	t.Helper()
	cfg.Epidemic = ec
	nw, err := NewNetwork(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw.Run(duration).Epidemic
}

func TestEpidemicStaticConnectedDeliversInstantly(t *testing.T) {
	model := connectedStatic(t, 201, 80, 20)
	res := runEpidemic(t, model, Config{Protocol: topology.RNG{}, Seed: 1}, 20, EpidemicConfig{Window: 5, Messages: 3})
	if res.Messages != 3 {
		t.Fatalf("scored %d messages, want 3", res.Messages)
	}
	if res.Delivered < 0.999 {
		t.Errorf("static connected epidemic delivered %.3f, want 1", res.Delivered)
	}
	if res.MeanDelay > 0.001 {
		t.Errorf("static connected epidemic delay %.4f, want ~0 (delivered by the first flood)", res.MeanDelay)
	}
}

func TestEpidemicStaticPartitionedStaysPartitioned(t *testing.T) {
	// Two clusters far apart, no mobility: the epidemic cannot bridge.
	pts := make([]geom.Point, 0, 20)
	for i := 0; i < 10; i++ {
		pts = append(pts, geom.Pt(float64(i)*20, 0))
	}
	for i := 0; i < 10; i++ {
		pts = append(pts, geom.Pt(float64(i)*20, 890))
	}
	model := mobility.NewStatic(arena, pts, 20)
	res := runEpidemic(t, model, Config{Protocol: topology.RNG{}, Seed: 2}, 20, EpidemicConfig{Window: 5, Messages: 4})
	// Each message reaches only its own 10-node cluster: 9 of 19 others.
	want := 9.0 / 19.0
	if res.Delivered < want-0.01 || res.Delivered > want+0.01 {
		t.Errorf("partitioned epidemic delivered %.3f, want ~%.3f", res.Delivered, want)
	}
}

func TestEpidemicBridgesPartitionsUnderMobility(t *testing.T) {
	// MST under mobility has terrible instantaneous connectivity, but
	// store-carry-forward with a bounded window should deliver far more —
	// the paper's future-work "weak connectivity with bounded delay".
	model := waypointModel(t, 20, 301)
	flood, err := NewNetwork(model, Config{
		Protocol: topology.MST{Range: 250}, FloodRate: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	fres := flood.Run(40)

	eres := runEpidemic(t, model, Config{Protocol: topology.MST{Range: 250}, Seed: 3}, 40, EpidemicConfig{Window: 10, Messages: 5})
	if eres.Delivered <= fres.Connectivity+0.1 {
		t.Errorf("epidemic (%.3f) should far exceed instantaneous flooding (%.3f)",
			eres.Delivered, fres.Connectivity)
	}
	if eres.MeanDelay <= 0 || eres.MeanDelay >= 10 {
		t.Errorf("mean delay %.3f outside (0, window)", eres.MeanDelay)
	}
}

func TestEpidemicDelayShrinksWithWindowlessness(t *testing.T) {
	// A wider delivery window can only increase the delivered fraction.
	model := waypointModel(t, 20, 303)
	run := func(window float64) float64 {
		return runEpidemic(t, model, Config{Protocol: topology.MST{Range: 250}, Seed: 4}, 40, EpidemicConfig{Window: window, Messages: 4}).Delivered
	}
	short, long := run(2), run(15)
	if long < short {
		t.Errorf("longer window delivered less: %.3f vs %.3f", long, short)
	}
}

// TestEpidemicGoldenDigest pins every EpidemicResult field, bit for bit,
// over three delivery windows on one waypoint trace.
func TestEpidemicGoldenDigest(t *testing.T) {
	const golden = "a26e89d1b0acb16a4d1b094077d51860e0036399baa81ccb95bc15099bd2cbe7"
	model := waypointModel(t, 20, 303)
	h := sha256.New()
	for _, window := range []float64{2, 5, 10} {
		res := runEpidemic(t, model, Config{Protocol: topology.MST{Range: 250}, Seed: 4}, 40, EpidemicConfig{Window: window, Messages: 4})
		fmt.Fprintf(h, "%#v\n", res)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Errorf("epidemic results drifted from the golden digest:\n got %s\nwant %s", got, golden)
	}
}

func TestEpidemicValidation(t *testing.T) {
	model := connectedStatic(t, 205, 10, 30)
	for _, ec := range []EpidemicConfig{
		{Window: 0, Messages: 1},
		{Window: -5, Messages: 1},
		{Window: 5, Messages: 0},
		{Window: 5, Check: -1, Messages: 1},
	} {
		if _, err := NewNetwork(model, Config{Protocol: topology.RNG{}, Seed: 1, Epidemic: ec}); err == nil {
			t.Errorf("invalid epidemic config accepted: %+v", ec)
		}
	}
}

func TestEpidemicShortRunInjectsNothing(t *testing.T) {
	// The warm-up (2.5 s) plus the window (5 s) exceed the run, so no
	// message could be scored at its deadline.
	model := connectedStatic(t, 205, 10, 30)
	res := runEpidemic(t, model, Config{Protocol: topology.RNG{}, Seed: 1}, 3, EpidemicConfig{Window: 5, Messages: 1})
	if res != (EpidemicResult{}) {
		t.Errorf("a run shorter than warm-up + window scored %+v, want nothing", res)
	}
}
