// DTN bridge: the paper's future-work experiment (§6) — combine
// mobility-TOLERANT management (topology control + buffer zones, instant
// delivery inside each connected component) with mobility-ASSISTED
// management (epidemic store-carry-forward, carriers physically bridge
// partitions) to achieve weak connectivity with bounded delay: the network
// snapshot is never fully connected, yet messages arrive within a deadline.
package main

import (
	"fmt"

	"mstc/internal/geom"
	"mstc/internal/manet"
	"mstc/internal/mobility"
	"mstc/internal/topology"
	"mstc/internal/xrand"
)

func main() {
	const (
		n        = 100
		speed    = 20.0 // m/s average
		duration = 60.0
	)
	lo, hi := mobility.SpeedSetdest(speed)
	model, err := mobility.NewRandomWaypoint(geom.Square(900), mobility.WaypointConfig{
		N: n, SpeedMin: lo, SpeedMax: hi, Horizon: duration,
	}, xrand.New(11))
	if err != nil {
		panic(err)
	}

	// Instantaneous flooding on MST: the sparsest topology, the worst
	// snapshot connectivity under mobility.
	flood, err := manet.NewNetwork(model, manet.Config{
		Protocol: topology.MST{Range: 250}, FloodRate: 10, Seed: 5,
	})
	if err != nil {
		panic(err)
	}
	fres := flood.Run(duration)
	fmt.Printf("MST, %g m/s average speed, 100 nodes\n\n", speed)
	fmt.Printf("instantaneous flooding delivery: %.3f  (snapshot connectivity is poor)\n\n",
		fres.Connectivity)

	fmt.Println("store-carry-forward over the same effective topology:")
	fmt.Printf("%-12s %-12s %s\n", "deadline (s)", "delivered", "mean delay (s)")
	for _, window := range []float64{1, 2, 5, 10, 20} {
		nw, err := manet.NewNetwork(model, manet.Config{
			Protocol: topology.MST{Range: 250}, Seed: 5,
			Epidemic: manet.EpidemicConfig{Window: window, Messages: 6},
		})
		if err != nil {
			panic(err)
		}
		res := nw.Run(duration).Epidemic
		fmt.Printf("%-12g %-12.3f %.2f\n", window, res.Delivered, res.MeanDelay)
	}
	fmt.Println("\nmobility itself carries messages across partitions: a deadline of a")
	fmt.Println("few tens of seconds buys near-complete delivery on a topology whose")
	fmt.Println("snapshots are badly disconnected.")
}
