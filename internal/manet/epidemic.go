package manet

import "mstc/internal/sim"

// Epidemic (store-carry-forward) message dissemination — the
// mobility-assisted management of §2.2, combined with the mobility-tolerant
// effective topology exactly as the paper's future-work section proposes
// (§6): "The snapshot of an effective topology is not connected at every
// moment, but a message can be delivered within a bounded period of time."
//
// A message spreads in two ways at once: instantaneously along the current
// effective topology (every carrier floods its connected component, the
// mobility-tolerant part), and over time as carriers physically move into
// new components (the mobility-assisted part). Delivery is scored against a
// deadline window.

// EpidemicConfig parameterizes the dissemination workload
// (Config.Epidemic). The zero value disables it.
type EpidemicConfig struct {
	// Window is the delivery deadline in seconds after origination.
	Window float64
	// Check is the contact-evaluation period in seconds (default 0.25):
	// how often carriers probe for new effective-topology contacts.
	Check float64
	// Messages is how many messages to inject, spaced evenly across the
	// run so each has a full Window before the run ends. A run shorter
	// than the warm-up plus Window injects none.
	Messages int
}

// Enabled reports whether any field is set.
func (c EpidemicConfig) Enabled() bool { return c != EpidemicConfig{} }

// EpidemicResult aggregates the dissemination workload.
type EpidemicResult struct {
	// Delivered is the mean fraction of non-source nodes reached within
	// the window.
	Delivered float64
	// MeanDelay is the mean delivery delay in seconds over all delivered
	// (message, node) pairs.
	MeanDelay float64
	// Messages is the number of scored messages.
	Messages int
}

// epidemicMsg is one in-flight message.
type epidemicMsg struct {
	src       int
	start     float64
	deadline  float64
	has       []bool
	reached   int // nodes with the message, source included
	delaySum  float64
	delivered int // non-source deliveries within the window
}

// epidemicState accumulates the dissemination workload while the run
// advances: the in-flight messages and the totals of retired ones.
type epidemicState struct {
	msgs       []*epidemicMsg
	messages   int
	delivered  int
	pairs      int
	delaySum   float64
	delayCount int
}

// startEpidemic schedules Config.Epidemic's injections and contact checks.
// The beaconing and selection of Run shape the effective topology the
// messages ride on, exactly as for floods. Messages are injected evenly
// between the warm-up and duration − Window, so each is scored at its
// deadline inside the run; a run too short for one window injects none.
func (nw *Network) startEpidemic(duration float64) {
	ec := nw.cfg.Epidemic
	ep := &epidemicState{}
	nw.epi = ep
	warmup := 2 * nw.cfg.HelloMax
	if duration < warmup+ec.Window {
		return
	}
	span := duration - warmup - ec.Window
	for i := 0; i < ec.Messages; i++ {
		at := warmup
		if ec.Messages > 1 {
			at += span * float64(i) / float64(ec.Messages-1)
		}
		i := i
		nw.eng.Schedule(at, func(now sim.Time) {
			m := &epidemicMsg{
				src:      nw.rng.Sub('e', uint64(i)).Intn(len(nw.nodes)),
				start:    now,
				deadline: now + ec.Window,
				has:      make([]bool, len(nw.nodes)),
			}
			m.has[m.src] = true
			m.reached = 1
			ep.msgs = append(ep.msgs, m)
			nw.spread(m, now) // immediate flood within the current component
			nw.eng.Schedule(m.deadline, func(sim.Time) {
				ep.delivered += m.delivered
				ep.pairs += len(nw.nodes) - 1
				ep.delaySum += m.delaySum
				ep.delayCount += m.delivered
				ep.messages++
				m.reached = -1 // retire
			})
		})
	}

	nw.eng.Every(warmup+ec.Check, ec.Check, func(now sim.Time) {
		for _, m := range ep.msgs {
			if m.reached > 0 && m.reached < len(m.has) {
				nw.spread(m, now)
			}
		}
	})
}

// result finalizes the delivered fraction and mean delay.
func (ep *epidemicState) result() EpidemicResult {
	res := EpidemicResult{Messages: ep.messages}
	if ep.pairs > 0 {
		res.Delivered = float64(ep.delivered) / float64(ep.pairs)
	}
	if ep.delayCount > 0 {
		res.MeanDelay = ep.delaySum / float64(ep.delayCount)
	}
	return res
}

// spread infects every node reachable from the current carrier set over the
// instantaneous effective topology.
func (nw *Network) spread(m *epidemicMsg, now sim.Time) {
	d := nw.EffectiveDigraphAt(now)
	stack := make([]int, 0, m.reached)
	for id, has := range m.has {
		if has {
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range d.Out(u) {
			if !m.has[v] {
				m.has[v] = true
				m.reached++
				m.delivered++
				m.delaySum += now - m.start
				stack = append(stack, int(v))
			}
		}
	}
}
