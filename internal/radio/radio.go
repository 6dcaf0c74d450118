// Package radio models the wireless medium as an ideal disc: a transmission
// by node u at time t with transmission range r is received by exactly the
// nodes within distance r of u at time t — no collision and no contention,
// matching the paper's simulation setup ("all simulations use an ideal MAC
// layer without collision and contention", §5.1).
//
// Two knobs extend the ideal model for robustness experiments: a constant
// per-hop delay (propagation plus processing) and an i.i.d. reception loss
// probability used by failure-injection tests. Both default to zero.
//
// # Bounded-staleness spatial index
//
// "Hello" beacons are asynchronous, so every transmission queries the
// medium at a unique instant; an exact-instant position cache never hits
// and each query would pay a full O(n) position sweep plus a grid rebuild.
// Instead the medium reuses a grid built at some earlier instant t0 and
// keeps queries exact by the same bounded-displacement argument as the
// paper's buffer zone (Theorem 5, l = 2·Δ″·v): within Δ = t−t0 seconds no
// pair of nodes changes relative distance by more than 2·vmax·Δ, so a disc
// query of radius r at time t is a subset of the stale grid's candidates at
// radius r + 2·vmax·Δ. Candidates are then filtered by their exact
// positions at t, making the receiver set identical — bit for bit — to a
// freshly built grid's. The grid is rebuilt only once the inflation
// 2·vmax·Δ exceeds a slack budget (one grid cell by default), turning the
// per-event cost from O(n) into O(neighborhood) amortized.
//
// The metric sampler re-anchors the grid: ReceiverCountsAt resolves every
// position at the sample instant (its degree sweep needs them all anyway),
// rebuilds the grid exactly there and counts each node's receivers from
// the indexed positions. Queries between samples then inflate their radius
// by at most 2·vmax/SampleRate rather than up to the slack budget.
package radio

import (
	"fmt"
	"math"

	"mstc/internal/channel"
	"mstc/internal/geom"
	"mstc/internal/mobility"
	"mstc/internal/spatial"
	"mstc/internal/xrand"
)

// Config parameterizes a Medium.
type Config struct {
	// Cell is the spatial-index cell size in meters (default 125, half
	// the normal transmission range).
	Cell float64
	// Delay is the constant per-hop delivery delay in seconds
	// (default 0: delivery at the instant of transmission).
	Delay float64
	// LossRate is the probability that an individual reception fails,
	// drawn independently per (transmission, receiver). Default 0.
	LossRate float64
	// TxDuration is the per-packet airtime in seconds. 0 (the default)
	// gives the paper's collision-free ideal MAC; positive values enable
	// the collision model in collision.go.
	TxDuration float64
	// Slack is the bounded-staleness budget in meters: the grid is
	// reused as long as the query-radius inflation 2·vmax·(t−t0) stays
	// within it. 0 (the default) means one grid cell; a negative value
	// disables staleness entirely and rebuilds per distinct instant (the
	// exact-instant reference behavior, kept for differential tests).
	// Receiver sets are independent of Slack by construction — the knob
	// trades grid rebuilds against candidate filtering, never results.
	Slack float64
}

func (c *Config) setDefaults() {
	if c.Cell == 0 { //lint:ignore float-eq zero value is the unset sentinel, exact by construction
		c.Cell = 125
	}
	if c.Slack == 0 { //lint:ignore float-eq zero value is the unset sentinel, exact by construction
		c.Slack = c.Cell
	}
}

// Medium is the shared wireless channel. It serves receiver queries from a
// bounded-staleness spatial grid (see the package comment): queries at
// instants close to the last grid build reuse it with an inflated search
// radius and exact-position filtering, so results never depend on the cache
// state. A Medium is single-goroutine, like the Engine that drives it.
type Medium struct {
	cur  *mobility.Cursor
	cfg  Config
	rng  *xrand.Source
	vmax float64

	// bounded-staleness grid state: the grid indexes every node's exact
	// position at gridAt
	grid   *spatial.Index
	gridAt float64
	gridOK bool
	pos    []geom.Point // every node's position at gridAt
	cand   []int        // scratch for inflated-radius candidates

	// collision-model state (see collision.go)
	txSeq uint64
	txLog []txRecord

	// ch is the attached non-ideal channel (nil = ideal). Transmissions —
	// and only transmissions — pass through its loss chains; geometric
	// queries (ReceiversAt, ReceiverCountsAt) stay loss-free so metrics and
	// effective-topology snapshots measure the radio, not the channel.
	ch *channel.Model
}

// NewMedium builds a medium over the mobility model. rng feeds the loss
// process only; pass any substream (it is unused when LossRate is 0).
func NewMedium(model mobility.Model, cfg Config, rng *xrand.Source) (*Medium, error) {
	cfg.setDefaults()
	if cfg.Delay < 0 {
		return nil, fmt.Errorf("radio: negative delay %g", cfg.Delay)
	}
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		return nil, fmt.Errorf("radio: loss rate %g outside [0, 1)", cfg.LossRate)
	}
	if cfg.TxDuration < 0 {
		return nil, fmt.Errorf("radio: negative TxDuration %g", cfg.TxDuration)
	}
	grid, err := spatial.NewIndex(model.Arena(), cfg.Cell)
	if err != nil {
		return nil, err
	}
	n := model.N()
	grid.Reserve(n)
	return &Medium{
		cur:  mobility.NewCursor(model),
		cfg:  cfg,
		rng:  rng,
		vmax: model.MaxSpeed(),
		grid: grid,
		pos:  make([]geom.Point, n),
		cand: make([]int, 0, 64),
	}, nil
}

// Delay returns the configured per-hop delivery delay.
func (m *Medium) Delay() float64 { return m.cfg.Delay }

// SetChannel attaches a non-ideal channel model. A nil model (the default)
// is the ideal channel: Transmit consumes no channel randomness and the
// medium behaves exactly as it did before the channel subsystem existed.
func (m *Medium) SetChannel(ch *channel.Model) { m.ch = ch }

// PositionAt returns node id's position at time t (single query, served by
// the medium's monotone leg cursor).
func (m *Medium) PositionAt(id int, t float64) geom.Point {
	return m.cur.PositionAt(id, t)
}

// inflation returns the query-radius inflation that makes the grid built at
// gridAt exact for a query at t: 2·vmax·(t−gridAt), the maximal relative
// displacement of any node pair over the staleness window (the buffer-zone
// displacement bound of Theorem 5).
func (m *Medium) inflation(t float64) float64 {
	return 2 * m.vmax * (t - m.gridAt)
}

// ensureGrid makes the grid usable for a query at time t: it rebuilds when
// there is no grid yet, when t precedes the build instant, or when the
// staleness inflation would exceed the slack budget.
func (m *Medium) ensureGrid(t float64) {
	if m.gridOK {
		if m.cfg.Slack < 0 {
			// Staleness disabled: reuse only at the exact build instant.
			if t == m.gridAt { //lint:ignore float-eq cache key: grid was built at exactly this simulated instant
				return
			}
		} else if t >= m.gridAt && m.inflation(t) <= m.cfg.Slack {
			return
		}
	}
	m.buildGrid(t)
}

// buildGrid resolves every node's position at t in one cursor sweep and
// re-anchors the grid there.
func (m *Medium) buildGrid(t float64) {
	m.pos = m.cur.ResolveAllInto(m.pos[:0], t)
	m.grid.Build(m.pos)
	m.gridAt = t
	m.gridOK = true
}

// ReceiversAt appends to dst the nodes that receive a transmission sent by
// sender at time t with range r: every node other than the sender within
// distance r at t, minus any losses. Results ascend by id.
func (m *Medium) ReceiversAt(t float64, sender int, r float64, dst []int) []int {
	if r <= 0 {
		return dst
	}
	m.ensureGrid(t)
	p := m.cur.PositionAt(sender, t)
	start := len(dst)
	m.cand = m.grid.WithinUnsorted(p, r+m.inflation(t), m.cand[:0])
	r2 := r * r
	for _, id := range m.cand {
		if id == sender {
			continue
		}
		// Exact filter: candidate sets may grow with staleness, but this
		// test over true positions at t is the same one a fresh grid
		// performs, so the receiver set is identical either way.
		if m.cur.PositionAt(id, t).Dist2(p) <= r2 {
			dst = append(dst, id)
		}
	}
	// Candidates arrive in cell-scan order; restore the ascending-id
	// contract on the (smaller) filtered set.
	sortInts(dst[start:])
	if m.cfg.LossRate > 0 {
		kept := dst[start:start]
		for _, id := range dst[start:] {
			if !m.LostAt(t, sender, id) {
				kept = append(kept, id)
			}
		}
		dst = dst[:start+len(kept)]
	}
	return dst
}

// ReceiverCountsAt sets counts[id] to the number of nodes that receive a
// transmission sent by id at time t with range ranges[id] — exactly
// len(ReceiversAt(t, id, ranges[id], nil)), losses included — for every
// node. It is the metric sampler's degree sweep: the grid is rebuilt at t,
// where it is exact, so each count is a scan of indexed positions with no
// candidate list, sort or position lookup; the rebuilt grid stays as the
// staleness anchor for the queries that follow.
//
//manet:noalloc
func (m *Medium) ReceiverCountsAt(t float64, ranges []float64, counts []int) {
	m.buildGrid(t)
	for id, r := range ranges {
		counts[id] = 0
		if r <= 0 {
			continue
		}
		p := m.pos[id]
		if m.cfg.LossRate <= 0 {
			// The sender is indexed at p itself, so the scan counts it.
			counts[id] = m.grid.CountWithin(p, r) - 1
			continue
		}
		m.cand = m.grid.WithinUnsorted(p, r, m.cand[:0])
		for _, v := range m.cand {
			if v != id && !m.LostAt(t, id, v) {
				counts[id]++
			}
		}
	}
}

// LostAt reports whether receiver id's copy of a transmission by sender at
// instant t is dropped by the medium's loss process (Config.LossRate).
// Loss is a pure function of (t, sender, id): the draw comes from a
// substream keyed by the exact float bits of t plus both endpoints, so any
// engine — and any evaluation order — resolves the same reception the same
// way. Safe for concurrent use: deriving never advances the medium's loss
// source, and no other medium state is touched.
func (m *Medium) LostAt(t float64, sender, id int) bool {
	if m.cfg.LossRate <= 0 {
		return false
	}
	d := m.rng.Derive('t', math.Float64bits(t), uint64(sender), uint64(id)) //lint:ignore noalloc Derive never retains its labels, so the slice stays on the stack (pinned by AllocsPerRun)
	return d.Float64() < m.cfg.LossRate
}

// sortInts is an allocation-free insertion sort for the small per-query
// receiver lists (sort.Ints pays generic-dispatch overhead at this size).
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
