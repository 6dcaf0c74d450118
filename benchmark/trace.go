package main

import (
	"time"

	"mstc/internal/topology"
)

// Span names. Spans are recorded only from the benchmark's own code,
// around calls into each layer's public functions.
const (
	spanRun        = "run"
	spanMobility   = "mobility.generate"
	spanNewNetwork = "manet.new_network"
	spanManetRun   = "manet.run"
	spanSelect     = "topology.select"
	spanSweepPut   = "sweep.put"
	spanSweepGet   = "sweep.get"
)

// span is one timed interval. Times are nanoseconds since the trace epoch;
// parent indexes the same run's span list (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Run    int32  `json:"run"`
}

// tracer is the in-memory span store of one traced pass. Each run records
// into its own runTrace (one goroutine per run), so recording takes no lock;
// the pass collects them when it ends.
type tracer struct {
	epoch time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// runTrace holds the spans of one run, in start order.
type runTrace struct {
	tr    *tracer
	run   int32
	spans []span
}

func (tr *tracer) newRun(run int) *runTrace {
	return &runTrace{tr: tr, run: int32(run)}
}

// begin opens a span and returns its index.
func (rt *runTrace) begin(name string, parent int32) int32 {
	rt.spans = append(rt.spans, span{Name: name, Start: rt.tr.now(), Parent: parent, Run: rt.run})
	return int32(len(rt.spans) - 1)
}

// end closes the span opened by begin.
func (rt *runTrace) end(i int32) { rt.spans[i].End = rt.tr.now() }

// dur returns the length of a closed span in nanoseconds.
func (s span) dur() int64 { return s.End - s.Start }

// selectTimer records a topology.select span for every selection the
// network computes. The selection cache answers hits without calling the
// protocol, so the count is exactly the number of cache misses.
type selectTimer struct {
	rt      *runTrace
	parent  int32 // the enclosing manet.run span
	viewSum int   // Σ neighbors over the timed views
}

func (st *selectTimer) record(start int64, view int) {
	rt := st.rt
	rt.spans = append(rt.spans, span{Name: spanSelect, Start: start, End: rt.tr.now(), Parent: st.parent, Run: rt.run})
	st.viewSum += view
}

// timedProtocol wraps a protocol so that every selection is timed. It
// implements topology.ScratchSelector, so the network calls SelectInto on
// it exactly as it would on the wrapped protocol, and returns the wrapped
// protocol's selection unchanged.
type timedProtocol struct {
	inner topology.Protocol
	t     *selectTimer
}

func (p timedProtocol) Name() string { return p.inner.Name() }

func (p timedProtocol) Select(v topology.View) []int {
	return p.SelectInto(v, nil, &topology.Scratch{})
}

func (p timedProtocol) SelectInto(v topology.View, dst []int, s *topology.Scratch) []int {
	start := p.t.rt.tr.now()
	dst = topology.SelectInto(p.inner, v, dst, s)
	p.t.record(start, len(v.Neighbors))
	return dst
}

// timedWeak is timedProtocol for weak-consistency selectors.
type timedWeak struct {
	inner topology.WeakProtocol
	t     *selectTimer
}

func (p timedWeak) Name() string { return p.inner.Name() }

func (p timedWeak) SelectWeak(v topology.MultiView) []int {
	return p.SelectWeakInto(v, nil, &topology.Scratch{})
}

func (p timedWeak) SelectWeakInto(v topology.MultiView, dst []int, s *topology.Scratch) []int {
	start := p.t.rt.tr.now()
	dst = topology.SelectWeakInto(p.inner, v, dst, s)
	p.t.record(start, len(v.Neighbors))
	return dst
}
