package main

import (
	"math"
	"time"

	"mstc/internal/experiment"
	"mstc/internal/geom"
	"mstc/internal/hello"
	"mstc/internal/mobility"
	"mstc/internal/radio"
	"mstc/internal/sim"
	"mstc/internal/spatial"
	"mstc/internal/xrand"
)

// The hello, radio, spatial and sim layers cannot be timed from outside a
// run, so the layer probe replays a task's beacon schedule on its own
// engine and calls each layer's public functions the way a beacon does.
// The probe shares the run's trajectories and Hello timing, not its
// protocol state: it models neither channel loss nor churn, so its beacon
// count equals the run's HelloTx exactly when the channel has no churn.

// Paper defaults the network applies (manet.Config.withDefaults).
const (
	helloMin    = 0.75
	helloMax    = 1.25
	helloExpiry = 2 * helloMax
	sampleRate  = 10  // metric samples per second
	gridCell    = 125 // radio.Config default cell
	spatialAt   = 10  // spatial-probe instants per run
)

type probeResult struct {
	beacons          int
	observeNs        float64 // per Table.Observe
	latestIntoNs     float64 // per Table.LatestInto
	stableUntilNs    float64 // per Table.StableUntil
	occupancy        float64 // live entries ÷ table slots at the horizon
	receiversAtNs    float64 // per Medium.ReceiversAt
	receiversPerCall float64
	withinNs         float64 // per Index.WithinUnsorted
	hitRatio         float64 // in-range hits ÷ points in the scanned cells
	events           int
	selfNsPerEvent   float64 // Engine.Run span minus handler spans, per event
	resolveNsPerNode float64 // Cursor.ResolveAllInto at the sample rate
}

// probeLayers replays task r's beacon schedule under options o.
func probeLayers(o experiment.Options, r experiment.Run) (probeResult, error) {
	var pr probeResult
	model, err := buildMobility(o, r)
	if err != nil {
		return pr, err
	}
	n := model.N()
	med, err := radio.NewMedium(model, radio.Config{}, xrand.New(0))
	if err != nil {
		return pr, err
	}
	// The network's Hello schedule: per-node interval from substream
	// ('h', id) of the network seed, first beacon offset from ('n', 'f', id).
	root := xrand.New(networkSeed(o, r))
	tables := hello.NewTablesN(1, helloExpiry, n, n)
	eng := sim.NewEngine()
	var (
		recv                              []int
		msgs                              []hello.Message
		version                           = make([]uint64, n)
		tRecv, tObserve, tLatest, tStable time.Duration
		tHandlers                         time.Duration
		received                          int
	)
	for id := 0; id < n; id++ {
		id := id
		interval := root.Sub('h', uint64(id)).Uniform(helloMin, helloMax)
		first := root.Sub('n').Sub('f', uint64(id)).Uniform(0, interval)
		eng.Every(first, interval, func(now sim.Time) {
			t0 := time.Now()
			recv = med.ReceiversAt(now, id, o.NormalRange, recv[:0])
			t1 := time.Now()
			version[id]++
			msg := hello.Message{From: id, Pos: med.PositionAt(id, now), SentAt: now, Version: version[id]}
			for _, rid := range recv {
				tables[rid].Observe(msg)
			}
			t2 := time.Now()
			msgs = tables[id].LatestInto(msgs[:0], now)
			t3 := time.Now()
			_ = tables[id].StableUntil(now)
			t4 := time.Now()
			tRecv += t1.Sub(t0)
			tObserve += t2.Sub(t1)
			tLatest += t3.Sub(t2)
			tStable += t4.Sub(t3)
			tHandlers += t4.Sub(t0)
			received += len(recv)
			pr.beacons++
		})
	}
	t0 := time.Now()
	pr.events = eng.Run(o.Duration)
	tRun := time.Since(t0)

	live := 0
	for _, t := range tables {
		live += len(t.LatestInto(msgs[:0], o.Duration))
	}
	pr.occupancy = float64(live) / float64(n*n)
	if pr.beacons > 0 {
		b := float64(pr.beacons)
		pr.receiversAtNs = float64(tRecv.Nanoseconds()) / b
		pr.receiversPerCall = float64(received) / b
		pr.latestIntoNs = float64(tLatest.Nanoseconds()) / b
		pr.stableUntilNs = float64(tStable.Nanoseconds()) / b
	}
	if received > 0 {
		pr.observeNs = float64(tObserve.Nanoseconds()) / float64(received)
	}
	if pr.events > 0 {
		pr.selfNsPerEvent = float64((tRun - tHandlers).Nanoseconds()) / float64(pr.events)
	}
	pr.withinNs, pr.hitRatio, err = probeSpatial(model, o.NormalRange, o.Duration)
	if err != nil {
		return pr, err
	}
	pr.resolveNsPerNode = probeResolve(model, o.Duration)
	return pr, nil
}

// probeSpatial times Index.WithinUnsorted for every node at evenly spaced
// instants, and counts the wasted work of the grid scan: points in the
// scanned cells that lie out of range.
func probeSpatial(model mobility.Model, r, horizon float64) (nsPerQuery, hitRatio float64, err error) {
	arena := model.Arena()
	ix, err := spatial.NewIndex(arena, gridCell)
	if err != nil {
		return 0, 0, err
	}
	nx := int(math.Ceil(arena.Width()/gridCell)) + 1
	ny := int(math.Ceil(arena.Height()/gridCell)) + 1
	cellOf := func(p geom.Point) (int, int) {
		cx := clamp(int((p.X-arena.Min.X)/gridCell), nx-1)
		cy := clamp(int((p.Y-arena.Min.Y)/gridCell), ny-1)
		return cx, cy
	}
	cur := mobility.NewCursor(model)
	var (
		pts        []geom.Point
		dst        []int
		count      = make([]int, nx*ny)
		busy       time.Duration
		queries    int
		hits, cand int
	)
	for k := 0; k < spatialAt; k++ {
		at := horizon * float64(k) / spatialAt
		pts = cur.ResolveAllInto(pts[:0], at)
		ix.Build(pts)
		clear(count)
		for _, p := range pts {
			cx, cy := cellOf(p)
			count[cy*nx+cx]++
		}
		t0 := time.Now()
		for _, p := range pts {
			dst = ix.WithinUnsorted(p, r, dst[:0])
			hits += len(dst)
		}
		busy += time.Since(t0)
		queries += len(pts)
		for _, p := range pts {
			x0, y0 := cellOf(geom.Pt(p.X-r, p.Y-r))
			x1, y1 := cellOf(geom.Pt(p.X+r, p.Y+r))
			for cy := y0; cy <= y1; cy++ {
				for cx := x0; cx <= x1; cx++ {
					cand += count[cy*nx+cx]
				}
			}
		}
	}
	if queries == 0 || cand == 0 {
		return 0, 0, nil
	}
	return float64(busy.Nanoseconds()) / float64(queries), float64(hits) / float64(cand), nil
}

func clamp(i, hi int) int {
	if i < 0 {
		return 0
	}
	if i > hi {
		return hi
	}
	return i
}

// probeResolve times Cursor.ResolveAllInto at the metric sample rate over
// the horizon, per node resolved.
func probeResolve(model mobility.Model, horizon float64) float64 {
	cur := mobility.NewCursor(model)
	dst := make([]geom.Point, 0, model.N())
	calls := 0
	t0 := time.Now()
	for k := 0; float64(k)/sampleRate <= horizon; k++ {
		dst = cur.ResolveAllInto(dst[:0], float64(k)/sampleRate)
		calls++
	}
	busy := time.Since(t0)
	return float64(busy.Nanoseconds()) / float64(calls*model.N())
}
