package manet

import (
	"mstc/internal/geom"
	"mstc/internal/sim"
)

// Unicast probing: greedy geographic forwarding over the live protocol
// state. Where the flooding probe measures raw connectivity, this measures
// what a routing protocol actually experiences: each relay picks the
// logical neighbor whose *advertised* position is closest to the
// destination's advertised position, transmits with its current power, and
// the hop succeeds only if the chosen neighbor is physically within range —
// stale views therefore surface as either local minima or range failures,
// the paper's two failure modes, now per-packet.

// UnicastConfig parameterizes the unicast probe workload (Config.Unicast).
// The zero value disables it.
type UnicastConfig struct {
	// Rate is probes per second (source and destination drawn uniformly).
	Rate float64
	// MaxHops bounds the path length before the packet is dropped
	// (default 4 * number of nodes).
	MaxHops int
}

// Enabled reports whether any field is set.
func (c UnicastConfig) Enabled() bool { return c != UnicastConfig{} }

// UnicastResult aggregates the unicast probe workload.
type UnicastResult struct {
	// Delivered is the fraction of probes that reached their destination.
	Delivered float64
	// AvgHops is the mean hop count of delivered probes.
	AvgHops float64
	// LocalMinima counts probes dropped with no closer logical neighbor.
	LocalMinima int
	// RangeFailures counts probes dropped because the chosen next hop was
	// no longer within transmission range (outdated information).
	RangeFailures int
	// Probes is the number of scored probes.
	Probes int
}

// unicastState accumulates the probe workload while the run advances.
type unicastState struct {
	res    UnicastResult
	hopSum int
}

// startUnicast schedules greedy probes at Config.Unicast.Rate from the
// warm-up on, each routed at the instant it is originated.
func (nw *Network) startUnicast() {
	maxHops := nw.cfg.Unicast.MaxHops
	if maxHops == 0 {
		maxHops = 4 * len(nw.nodes)
	}
	nw.uni = &unicastState{}
	warmup := 2 * nw.cfg.HelloMax
	nw.eng.Every(warmup, 1/nw.cfg.Unicast.Rate, func(now sim.Time) {
		//lint:ignore substream historical draw order: probe endpoints ride the root network stream, mirroring originateFlood; a Sub would change unicast digests
		src := nw.rng.Intn(len(nw.nodes))
		//lint:ignore substream historical draw order: probe endpoints ride the root network stream, mirroring originateFlood; a Sub would change unicast digests
		dst := nw.rng.Intn(len(nw.nodes))
		if src == dst {
			return
		}
		nw.routeProbe(src, dst, maxHops, now)
	})
}

// result finalizes the delivery ratio and mean hop count.
func (u *unicastState) result() UnicastResult {
	res := u.res
	if res.Probes > 0 {
		delivered := res.Probes - res.LocalMinima - res.RangeFailures
		res.Delivered = float64(delivered) / float64(res.Probes)
		if delivered > 0 {
			res.AvgHops = float64(u.hopSum) / float64(delivered)
		}
	}
	return res
}

// routeProbe walks one greedy probe hop by hop at a single instant (probe
// forwarding is orders of magnitude faster than node movement, as with
// floods).
func (nw *Network) routeProbe(src, dst, maxHops int, now sim.Time) {
	res := &nw.uni.res
	res.Probes++
	dstPos := nw.nodes[dst].advertisedPos
	cur := src
	hops := 0
	for cur != dst {
		if hops >= maxHops {
			res.LocalMinima++ // routing loop exhausted its budget
			return
		}
		nd := nw.nodes[cur]
		if nw.cfg.Mech.ViewSync {
			nw.updateSelection(nd, now, nd.advertisedPos)
		}
		next, ok := nw.greedyNext(nd, dst, dstPos, now)
		if !ok {
			res.LocalMinima++
			return
		}
		// The hop physically succeeds only if next is inside cur's
		// current transmission range.
		d := nw.med.PositionAt(cur, now).Dist(nw.med.PositionAt(next, now))
		if d > nd.txRange {
			res.RangeFailures++
			return
		}
		nw.dataTx++
		nw.dataEnergy += energyOf(nd.txRange/nw.cfg.NormalRange, nw.cfg.EnergyAlpha)
		cur = next
		hops++
	}
	nw.uni.hopSum += hops
}

// greedyNext picks nd's forwarding-eligible neighbor whose advertised
// position is strictly closest to target (closer than nd's own advertised
// position). Eligible neighbors are the logical set, or every known
// neighbor under the physical-neighbor mechanism.
func (nw *Network) greedyNext(nd *node, dst int, target geom.Point, now sim.Time) (int, bool) {
	best := -1
	bestD := nd.advertisedPos.Dist2(target)
	nw.nbrBuf = nd.table.NeighborsInto(nw.nbrBuf[:0], now)
	for _, nb := range nw.nbrBuf {
		if !nw.cfg.Mech.PhysicalNeighbors && !nd.isLogical(nb.ID) {
			continue
		}
		if nb.ID == dst {
			// Destination in reach beats any geometric progress.
			return dst, true
		}
		if d := nb.Pos.Dist2(target); d < bestD {
			bestD = d
			best = nb.ID
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}
