package radio

import (
	"fmt"
	"slices"
	"testing"

	"mstc/internal/geom"
	"mstc/internal/mobility"
	"mstc/internal/xrand"
)

// shrunkArena reports a smaller arena than its nodes move in, so nodes
// wander outside it and the grid clamps them into edge cells. It hides the
// wrapped model's legs, exercising the cursor's plain-PositionAt path.
type shrunkArena struct{ mobility.Model }

func (s shrunkArena) Arena() geom.Rect { return geom.Square(600) }

// TestReceiverCountsMatchReceiversAt is the differential test for the
// metric sampler's degree sweep: at every sample instant each node's count
// must equal len(ReceiversAt) for the same sender and range, across speeds,
// loss, slack budgets, non-positive ranges, co-located nodes and nodes
// outside the arena. Receiver queries between samples — served by the grid
// the sweep re-anchored — must still match the brute-force disc scan.
func TestReceiverCountsMatchReceiversAt(t *testing.T) {
	const horizon = 30.0
	type modelCase struct {
		name  string
		model func(t *testing.T) mobility.Model
	}
	var cases []modelCase
	for _, vmax := range []float64{1, 20, 160} {
		cases = append(cases,
			modelCase{fmt.Sprintf("waypoint/vmax=%g", vmax), func(t *testing.T) mobility.Model {
				return newWaypointModel(t, 80, vmax, horizon, 13)
			}},
			modelCase{fmt.Sprintf("outside-arena/vmax=%g", vmax), func(t *testing.T) mobility.Model {
				return shrunkArena{newWaypointModel(t, 80, vmax, horizon, 14)}
			}})
	}
	colocated := make([]geom.Point, 40)
	for i := range colocated {
		colocated[i] = geom.Pt(float64(100*(i%4)), 450) // 10 nodes per spot
	}
	colocated[0] = geom.Pt(-80, 1000) // outside the arena, too
	cases = append(cases, modelCase{"co-located", func(*testing.T) mobility.Model {
		return mobility.NewStatic(arena, colocated, horizon)
	}})
	for _, mc := range cases {
		for _, loss := range []float64{0, 0.3} {
			for _, slack := range []float64{-1, 0, 500} {
				t.Run(fmt.Sprintf("%s/loss=%g/slack=%g", mc.name, loss, slack), func(t *testing.T) {
					checkCounts(t, mc.model(t), Config{LossRate: loss, Slack: slack})
				})
			}
		}
	}
}

func checkCounts(t *testing.T, model mobility.Model, cfg Config) {
	med, err := NewMedium(model, cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewMedium(model, cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	n := model.N()
	ranges := make([]float64, n)
	counts := make([]int, n)
	rng := xrand.New(21)
	var buf []int
	at := 0.0
	for step := 0; step < 60; step++ {
		// Receiver queries between samples, through the re-anchored grid.
		for q := 0; q < 5; q++ {
			at += rng.Uniform(0, 0.03)
			sender, r := rng.Intn(n), rng.Uniform(50, 400)
			buf = med.ReceiversAt(at, sender, r, buf[:0])
			want := ref.ReceiversAt(at, sender, r, nil)
			if !slices.Equal(buf, want) {
				t.Fatalf("t=%v sender=%d r=%g: ReceiversAt = %v, want %v", at, sender, r, buf, want)
			}
			if cfg.LossRate == 0 && !slices.Equal(buf, bruteReceivers(model, at, sender, r)) {
				t.Fatalf("t=%v sender=%d r=%g: ReceiversAt = %v, brute force disagrees", at, sender, r, buf)
			}
		}
		for id := range ranges {
			switch rng.Intn(10) {
			case 0:
				ranges[id] = 0
			case 1:
				ranges[id] = -rng.Uniform(0, 100)
			case 2:
				ranges[id] = 2000 // covers the whole arena
			default:
				ranges[id] = rng.Uniform(1, 400)
			}
		}
		med.ReceiverCountsAt(at, ranges, counts)
		for id, r := range ranges {
			if want := len(ref.ReceiversAt(at, id, r, nil)); counts[id] != want {
				t.Fatalf("t=%v node %d r=%g: count %d, want %d", at, id, r, counts[id], want)
			}
		}
		if step%10 == 9 {
			at = rng.Uniform(0, at) // a backward jump
		}
	}
}
