package hello

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"mstc/internal/geom"
)

// refTable is the reference model FuzzTable holds Table to: one history
// per sender id, kept by inserting, re-sorting by descending version and
// truncating to k, and a count of the mutations Version must report.
type refTable struct {
	k      int
	expiry float64
	hist   [][]Message // indexed by sender id
	bumps  uint64
}

func (r *refTable) observe(m Message) {
	h := r.hist[m.From]
	for i := range h {
		if h[i].Version == m.Version {
			h[i] = m
			r.bumps++
			return
		}
	}
	if len(h) == r.k && m.Version < h[r.k-1].Version {
		return
	}
	h = append(h, m)
	for i := len(h) - 1; i > 0 && h[i].Version > h[i-1].Version; i-- {
		h[i], h[i-1] = h[i-1], h[i]
	}
	r.hist[m.From] = h[:min(len(h), r.k)]
	r.bumps++
}

func (r *refTable) reset() {
	for id := range r.hist {
		r.hist[id] = nil
	}
	r.bumps++
}

func (r *refTable) live(h []Message, now float64) bool {
	return len(h) > 0 && (r.expiry <= 0 || now-h[0].SentAt <= r.expiry)
}

// pick returns, per live sender ascending by id, the first history entry
// accepted by keep.
func (r *refTable) pick(now float64, keep func(Message) bool) []Message {
	var out []Message
	for _, h := range r.hist {
		if !r.live(h, now) {
			continue
		}
		for _, m := range h {
			if keep(m) {
				out = append(out, m)
				break
			}
		}
	}
	return out
}

func (r *refTable) stableUntil(now float64) float64 {
	horizon := math.Inf(1)
	if r.expiry <= 0 {
		return horizon
	}
	for _, h := range r.hist {
		if r.live(h, now) {
			horizon = math.Min(horizon, h[0].SentAt+r.expiry)
		}
	}
	return horizon
}

func (r *refTable) len() int {
	n := 0
	for _, h := range r.hist {
		if len(h) > 0 {
			n++
		}
	}
	return n
}

// FuzzTable drives two tables of one batch and their reference models
// with an op stream decoded from ops, two bytes per op: the first byte's
// low three bits pick the op and its top bit the table, the second byte is
// the operand. Ops are Observe (weighted 4 of 8), Reset, time advance in
// quarter seconds, and Observe of an id at or outside the bound, which
// must panic and change nothing. After every op each query of both tables
// must match its model (StableUntil included), and Version must have
// moved by exactly the model's mutation count. `go test` runs
// the seed corpus;
// `go test -fuzz=FuzzTable ./internal/hello` explores further.
func FuzzTable(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), []byte{0, 0x13, 1, 0x13, 2, 0x12, 0, 0x21, 6, 4, 0x80, 0x13})
	f.Add(uint8(2), uint8(6), uint8(1), []byte{0, 0x11, 0, 0x13, 0, 0x12, 0, 0x14, 6, 3, 0, 0x15, 6, 5, 1, 0x21})
	f.Add(uint8(1), uint8(10), uint8(8), []byte{0, 0x71, 7, 0x80, 0x87, 0xff, 5, 0, 0x80, 0x71, 6, 7, 6, 7, 0, 0x72})
	f.Fuzz(func(t *testing.T, kRaw, expiryRaw, capRaw uint8, ops []byte) {
		const bound = 8
		k := int(kRaw%4) + 1
		expiry := float64(expiryRaw%16) * 0.25 // 0 disables expiry
		tables := NewTables(k, expiry, bound, 2, int(capRaw%(bound+2)))
		var refs [2]*refTable
		var base [2]uint64
		for c := range refs {
			refs[c] = &refTable{k: k, expiry: expiry, hist: make([][]Message, bound)}
			base[c] = tables[c].Version()
		}
		now := 0.0
		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step], ops[step+1]
			c := int(op >> 7)
			tb, ref := tables[c], refs[c]
			switch op & 7 {
			case 0, 1, 2, 3:
				// Sender in the low three bits, version in the high nibble (so
				// out-of-order and duplicate versions are common), send
				// time up to a second in the past.
				m := Message{
					From:    int(arg & 7),
					Pos:     geom.Pt(float64(step), float64(c)),
					SentAt:  now - float64(op&3)*0.25,
					Version: uint64(arg >> 4),
				}
				tb.Observe(m)
				ref.observe(m)
			case 4:
				tb.Reset()
				ref.reset()
			case 5, 6:
				now += float64(arg%8) * 0.25
			case 7:
				id := bound
				if arg&1 == 1 {
					id = -1
				}
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					tb.Observe(Message{From: id, Version: 1})
					return false
				}()
				if !panicked {
					t.Fatalf("step %d: Observe(From %d) did not panic", step, id)
				}
			}
			for c := range tables {
				checkTable(t, fmt.Sprintf("step %d table %d", step, c), tables[c], refs[c], base[c], now, bound)
			}
		}
	})
}

// checkTable compares every query of tb at now against the model.
func checkTable(t *testing.T, where string, tb *Table, ref *refTable, base uint64, now float64, bound int) {
	t.Helper()
	if got, want := tb.Version()-base, ref.bumps; got != want {
		t.Fatalf("%s: Version moved %d times, want %d", where, got, want)
	}
	if got, want := tb.Len(), ref.len(); got != want {
		t.Fatalf("%s: Len = %d, want %d", where, got, want)
	}
	if len(tb.msgs) != len(tb.nbrs)*tb.k {
		t.Fatalf("%s: %d history slots for %d neighbors of depth %d", where, len(tb.msgs), len(tb.nbrs), tb.k)
	}
	if got, want := tb.StableUntil(now), ref.stableUntil(now); got != want {
		t.Fatalf("%s: StableUntil = %g, want %g", where, got, want)
	}
	// Every query appends after a sentinel it must leave untouched.
	sentinel := Message{From: -7, Version: 99}
	check := func(query string, got, want []Message) {
		t.Helper()
		if len(got) == 0 || !reflect.DeepEqual(got[0], sentinel) {
			t.Fatalf("%s: %s overwrote dst's prefix", where, query)
		}
		if len(got[1:]) != len(want) || len(want) > 0 && !reflect.DeepEqual(got[1:], want) {
			t.Fatalf("%s: %s = %v, want %v", where, query, got[1:], want)
		}
	}
	// The site accessors append the From and Pos of the messages their
	// model picks.
	siteSentinel := geom.Site{ID: -7, Pos: geom.Pt(-1, -1)}
	sites := []geom.Site{siteSentinel}
	checkSites := func(query string, got []geom.Site, want []Message) {
		t.Helper()
		if len(got) == 0 || got[0] != siteSentinel {
			t.Fatalf("%s: %s overwrote dst's prefix", where, query)
		}
		wantSites := make([]geom.Site, 0, len(want))
		for _, m := range want {
			wantSites = append(wantSites, geom.Site{ID: m.From, Pos: m.Pos})
		}
		if !slices.Equal(got[1:], wantSites) {
			t.Fatalf("%s: %s = %v, want %v", where, query, got[1:], wantSites)
		}
	}
	dst := []Message{sentinel}
	latest := ref.pick(now, func(Message) bool { return true })
	check("LatestInto", tb.LatestInto(dst, now), latest)
	checkSites("NeighborsInto", tb.NeighborsInto(sites, now), latest)
	for id := -1; id <= bound; id++ {
		var want []Message
		if id >= 0 && id < bound && ref.live(ref.hist[id], now) {
			want = ref.hist[id]
		}
		check(fmt.Sprintf("HistoryInto(%d)", id), tb.HistoryInto(dst, id, now), want)
	}
	for v := uint64(0); v <= 16; v++ {
		checkSites(fmt.Sprintf("VersionedInto(%d)", v), tb.VersionedInto(sites, v, now),
			ref.pick(now, func(m Message) bool { return m.Version == v }))
		checkSites(fmt.Sprintf("AsOfInto(%d)", v), tb.AsOfInto(sites, v, now),
			ref.pick(now, func(m Message) bool { return m.Version <= v }))
	}
}
