// Package hello implements the "Hello" beaconing data structures: versioned,
// timestamped location advertisements and the per-node neighbor table that
// stores the k most recent messages from every neighbor (§4.2, Theorem 3:
// k = ceil(delta/Delta) + 1 recent messages suffice for weakly consistent
// views; k = 1 gives the plain latest-message table of the baselines).
//
// A table holds only the senders it has heard since its last Reset: an
// ascending-id list of neighbors, each with k history slots, found by
// binary search. Its storage is sized to the neighborhood, not to the
// number of nodes, and grows only on first contact with a new sender.
//
// The table is pure bookkeeping — no simulation clocks — so it is unit
// testable in isolation; package manet drives it from the event loop.
package hello

import (
	"fmt"
	"math"
	"slices"

	"mstc/internal/geom"
)

// Message is one "Hello" advertisement: a node's id, the position it
// advertises, the send timestamp, and a per-sender version number
// (1 for the sender's first message, incrementing by 1). Neighbors and
// Marked are the optional 2-hop payload used by CDS-based broadcasting
// (references [34]/[35]): the sender's current neighbor ids and its own
// Wu-Li marked status. MPRs is the optional OLSR payload: the multipoint
// relays the sender selected from its neighborhood — a receiver listed
// there knows the sender is one of its MPR selectors.
type Message struct {
	From      int
	Pos       geom.Point
	SentAt    float64
	Version   uint64
	Neighbors []int
	MPRs      []int
	Marked    bool
}

// Table is one node's neighbor table. It stores up to K recent messages per
// neighbor (newest first) and expires neighbors whose newest message is
// older than its expiry.
//
// Neighbor i of the ascending-id list nbrs owns the history slots
// msgs[i*k : (i+1)*k], of which the first nbrs[i].n hold messages by
// descending version. A neighbor enters the list with its first message
// and leaves it only on Reset; an expired neighbor stays listed (invisible
// to every query) and a later message extends its stored history. The
// list entry also carries the newest message's send time, so liveness and
// the expiry horizon are read from the dense 16-byte entries without
// touching the message slots.
type Table struct {
	k      int
	expiry float64
	bound  int // sender ids lie in [0, bound)
	nbrs   []neighbor
	msgs   []Message
	ver    uint64 // monotone mutation counter (see Version)
}

// neighbor is one listed sender: its id, the length of its history and the
// SentAt of its newest (highest-version) message.
type neighbor struct {
	id, n  int32
	sentAt float64
}

// NewTables returns count tables for sender ids in [0, n), each keeping
// k >= 1 recent messages per neighbor; entries expire once their newest
// message is older than expiry seconds (expiry <= 0 disables expiry).
// Every table starts with room for capacity neighbors (clamped to [0, n])
// carved out of one bulk allocation shared by the batch, so a table
// allocates only when it hears more than capacity distinct senders.
func NewTables(k int, expiry float64, n, count, capacity int) []*Table {
	if k < 1 {
		panic(fmt.Sprintf("hello: table with k = %d", k))
	}
	if n < 0 || n > math.MaxInt32 || count < 0 {
		panic(fmt.Sprintf("hello: tables with n = %d, count = %d", n, count))
	}
	capacity = min(max(capacity, 0), n)
	tables := make([]Table, count)
	out := make([]*Table, count)
	nbrs := make([]neighbor, count*capacity)
	msgs := make([]Message, count*capacity*k)
	for c := range tables {
		t := &tables[c]
		t.k, t.expiry, t.bound = k, expiry, n
		// The capacity bound keeps a table's growth from spilling into the
		// next table's window: past it, append reallocates.
		t.nbrs = nbrs[c*capacity : c*capacity : (c+1)*capacity]
		t.msgs = msgs[c*capacity*k : c*capacity*k : (c+1)*capacity*k]
		out[c] = t
	}
	return out
}

// NewTablesN is NewTables with room for all n senders in every table, so no
// table ever allocates after construction.
func NewTablesN(k int, expiry float64, n, count int) []*Table {
	return NewTables(k, expiry, n, count, n)
}

// K returns the per-neighbor history depth.
func (t *Table) K() int { return t.k }

// Len returns the number of listed neighbors, expired or not.
func (t *Table) Len() int { return len(t.nbrs) }

// Version returns the table's monotone mutation counter: it increases on
// every state change (message stored or replaced, reset) and never
// otherwise. Together with an expiry horizon (StableUntil) it is an O(1)
// fingerprint of the table's visible contents; package manet keys its OLSR
// link-state memo on it.
func (t *Table) Version() uint64 { return t.ver }

// StableUntil returns the latest instant through which the table's visible
// contents are guaranteed unchanged absent mutations: the earliest expiry
// deadline over currently-live histories (+Inf when nothing can expire).
// For any now' in [now, StableUntil(now)] with Version unchanged, every
// query returns the same messages at now' as at now — entries live at now
// stay live through the horizon, and entries already expired can only
// revive via a new message, which bumps Version.
func (t *Table) StableUntil(now float64) float64 {
	horizon := math.Inf(1)
	if t.expiry <= 0 {
		return horizon
	}
	for i, nb := range t.nbrs {
		if !t.live(i, now) {
			continue
		}
		if d := nb.sentAt + t.expiry; d < horizon {
			horizon = d
		}
	}
	return horizon
}

// Reset drops all stored state in place, keeping the table's storage and
// expiry. Unlike constructing a fresh table, Reset keeps the mutation
// counter monotone, so nothing keyed by Version before the reset can alias
// the post-reset state.
func (t *Table) Reset() {
	t.ver++
	t.nbrs = t.nbrs[:0]
	t.msgs = t.msgs[:0]
}

// find returns the list index of id, or the index it would be inserted at,
// and whether it is listed.
func (t *Table) find(id int) (int, bool) {
	lo, hi := 0, len(t.nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(t.nbrs[mid].id) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t.nbrs) && int(t.nbrs[lo].id) == id
}

// history returns neighbor i's stored messages, newest first, with
// capacity k.
func (t *Table) history(i int) []Message {
	return t.msgs[i*t.k : i*t.k+int(t.nbrs[i].n) : (i+1)*t.k]
}

// live reports whether neighbor i's newest message is unexpired at now.
func (t *Table) live(i int, now float64) bool {
	return t.expiry <= 0 || now-t.nbrs[i].sentAt <= t.expiry
}

// Observe records a received message, evicting the oldest stored message
// from the same sender beyond the history depth. Messages may arrive out
// of order; the table keeps the k highest versions. A duplicate version
// replaces the stored copy. Observing a sender id outside [0, n) panics.
func (t *Table) Observe(msg Message) {
	if msg.From < 0 || msg.From >= t.bound {
		panic(fmt.Sprintf("hello: table for %d senders observed id %d", t.bound, msg.From))
	}
	i, ok := t.find(msg.From)
	if !ok {
		// First contact: open an empty history at i, shifting the later
		// neighbors' entries and slots up by one.
		t.nbrs = append(t.nbrs, neighbor{})
		copy(t.nbrs[i+1:], t.nbrs[i:])
		t.nbrs[i] = neighbor{id: int32(msg.From)}
		t.msgs = slices.Grow(t.msgs, t.k)[:len(t.msgs)+t.k]
		copy(t.msgs[(i+1)*t.k:], t.msgs[i*t.k:])
	}
	h := t.history(i)
	// Insert by descending version. Linear scan: h holds at most k entries
	// (small), so this beats sort.Search's closure calls on the hot path.
	idx := 0
	for idx < len(h) && h[idx].Version > msg.Version {
		idx++
	}
	switch {
	case idx < len(h) && h[idx].Version == msg.Version:
		h[idx] = msg // duplicate version: replace in place
	case len(h) < t.k:
		h = append(h, Message{})
		copy(h[idx+1:], h[idx:])
		h[idx] = msg
	case idx < t.k:
		// Full history: shift the tail right in place, dropping the
		// lowest stored version — equivalent to insert-then-truncate but
		// without growing past capacity k.
		copy(h[idx+1:], h[idx:t.k-1])
		h[idx] = msg
	default:
		return // older than all k stored versions of a full history
	}
	t.nbrs[i].n = int32(len(h))
	t.nbrs[i].sentAt = h[0].SentAt
	t.ver++
}

// LatestInto appends the newest stored message per live neighbor to dst
// (which may be nil), ascending by neighbor id; dst's existing contents
// are untouched. Hot paths reuse one scratch buffer across calls.
//
//manet:noalloc
func (t *Table) LatestInto(dst []Message, now float64) []Message {
	for i := range t.nbrs {
		if t.live(i, now) {
			dst = append(dst, t.msgs[i*t.k])
		}
	}
	return dst
}

// NeighborsInto appends the id and newest advertised position of every
// live neighbor to dst (which may be nil), ascending by neighbor id — the
// From and Pos of what LatestInto appends, without copying whole messages.
//
//manet:noalloc
func (t *Table) NeighborsInto(dst []geom.Site, now float64) []geom.Site {
	for i, nb := range t.nbrs {
		if t.live(i, now) {
			dst = append(dst, geom.Site{ID: int(nb.id), Pos: t.msgs[i*t.k].Pos})
		}
	}
	return dst
}

// HistoryInto appends the stored messages of the given neighbor, newest
// first, to dst (which may be nil); it appends nothing when the neighbor is
// absent or expired.
//
//manet:noalloc
func (t *Table) HistoryInto(dst []Message, id int, now float64) []Message {
	i, ok := t.find(id)
	if !ok || !t.live(i, now) {
		return dst
	}
	return append(dst, t.history(i)...)
}

// VersionedInto appends, per live neighbor, the id and position of the
// stored message with exactly the given version, ascending by neighbor id.
// Neighbors lacking that version are omitted — this is the lookup the
// reactive strong-consistency scheme performs once every node has beaconed
// a round's version (§4.1).
//
//manet:noalloc
func (t *Table) VersionedInto(dst []geom.Site, version uint64, now float64) []geom.Site {
	for i := range t.nbrs {
		if !t.live(i, now) {
			continue
		}
		for _, msg := range t.history(i) {
			if msg.Version == version {
				dst = append(dst, geom.Site{ID: msg.From, Pos: msg.Pos})
				break
			}
		}
	}
	return dst
}

// AsOfInto appends, per live neighbor, the id and position of the newest
// stored message with version at most v, ascending by neighbor id.
// Neighbors with no such version are omitted. This is the lookup behind
// the proactive strong-consistency scheme (§4.1): all nodes relaying a
// packet pinned to version v resolve each neighbor to the *same* message,
// so their local views are consistent in the sense of Theorem 2.
//
//manet:noalloc
func (t *Table) AsOfInto(dst []geom.Site, v uint64, now float64) []geom.Site {
	for i := range t.nbrs {
		if !t.live(i, now) {
			continue
		}
		// The history is sorted by descending version; pick the first <= v.
		for _, msg := range t.history(i) {
			if msg.Version <= v {
				dst = append(dst, geom.Site{ID: msg.From, Pos: msg.Pos})
				break
			}
		}
	}
	return dst
}
