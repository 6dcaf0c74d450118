package manet

import (
	"testing"

	"mstc/internal/mobility"
	"mstc/internal/topology"
)

// runUnicast runs cfg with greedy probes at rate for duration seconds.
func runUnicast(t *testing.T, model mobility.Model, cfg Config, duration, rate float64) Result {
	t.Helper()
	cfg.Unicast = UnicastConfig{Rate: rate}
	nw, err := NewNetwork(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw.Run(duration)
}

func TestUnicastStaticDenseTopologyDelivers(t *testing.T) {
	// Greedy routing needs a topology without local minima; the dense
	// uncontrolled graph qualifies on most instances, and everything is
	// static so no range failures can occur.
	model := connectedStatic(t, 51, 80, 15)
	res := runUnicast(t, model, Config{Protocol: topology.None{}, Seed: 21}, 15, 20).Unicast
	if res.Probes < 100 {
		t.Fatalf("only %d probes", res.Probes)
	}
	if res.RangeFailures != 0 {
		t.Errorf("static run had %d range failures", res.RangeFailures)
	}
	if res.Delivered < 0.95 {
		t.Errorf("dense static delivery = %.3f", res.Delivered)
	}
	if res.Delivered > 0 && res.AvgHops <= 0 {
		t.Error("no hop accounting")
	}
}

func TestUnicastGGBeatsMSTGreedy(t *testing.T) {
	// GG has far fewer greedy local minima than the tree-like MST.
	model := connectedStatic(t, 53, 100, 15)
	run := func(p topology.Protocol) UnicastResult {
		return runUnicast(t, model, Config{Protocol: p, Seed: 22}, 15, 20).Unicast
	}
	gg := run(topology.Gabriel{})
	mst := run(topology.MST{Range: 250})
	if gg.Delivered <= mst.Delivered {
		t.Errorf("GG greedy delivery %.3f should beat MST %.3f", gg.Delivered, mst.Delivered)
	}
}

func TestUnicastMobilityRangeFailures(t *testing.T) {
	// Under mobility without a buffer, some failures must be range
	// failures (outdated information), and a generous buffer plus view
	// synchronization must improve delivery.
	model := waypointModel(t, 40, 401)
	rawRes := runUnicast(t, model, Config{Protocol: topology.Gabriel{}, Seed: 23}, 20, 20).Unicast
	if rawRes.RangeFailures == 0 {
		t.Error("no range failures at 40 m/s without buffer — implausible")
	}
	fixedRes := runUnicast(t, model, Config{
		Protocol: topology.Gabriel{}, Seed: 23,
		Mech: Mechanisms{Buffer: 50, ViewSync: true},
	}, 20, 20).Unicast
	if fixedRes.Delivered <= rawRes.Delivered {
		t.Errorf("mobility management did not improve unicast: %.3f vs %.3f",
			rawRes.Delivered, fixedRes.Delivered)
	}
}

func TestUnicastValidation(t *testing.T) {
	model := connectedStatic(t, 55, 10, 5)
	for _, uc := range []UnicastConfig{
		{MaxHops: 3},
		{Rate: -1},
		{Rate: 1, MaxHops: -1},
	} {
		if _, err := NewNetwork(model, Config{Protocol: topology.RNG{}, Seed: 1, Unicast: uc}); err == nil {
			t.Errorf("invalid unicast config accepted: %+v", uc)
		}
	}
}

func TestUnicastAccountsEnergy(t *testing.T) {
	model := connectedStatic(t, 57, 50, 10)
	res := runUnicast(t, model, Config{Protocol: topology.Gabriel{}, Seed: 24}, 10, 10)
	// Unicast hops are data transmissions too.
	if res.DataTx == 0 || res.DataEnergy <= 0 {
		t.Errorf("unicast hops not accounted: tx=%d energy=%v", res.DataTx, res.DataEnergy)
	}
	// Beaconing and the metric sampler run as for floods.
	if res.HelloTx == 0 || res.AvgTxRange <= 0 || res.AvgPhysicalDegree <= 0 {
		t.Errorf("unicast run reported no hello or range statistics: %+v", res)
	}
}
