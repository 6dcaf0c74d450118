// Package topology implements the paper's topology-control framework
// (§3–§4): link costs with a strict total order, local views, the
// logical-neighbor selection rules of the RNG-, Gabriel-, MST-, SPT- and
// Yao-based protocols, the enhanced (weakly consistent) selection rules,
// and transmission-range computation with buffer zones.
//
// Everything here is pure: selectors map a local view to a logical-neighbor
// set with no hidden state, which is what lets the same code run inside the
// discrete-event simulator (package manet), inside the omniscient snapshot
// analyzer (package snapshot), and inside property tests of Theorems 1–5.
package topology

import (
	"fmt"
	"math"
)

// CostFn maps a link's Euclidean distance to its cost c(u,v) (§3.1).
// It must be strictly increasing so that cost order equals distance order.
type CostFn func(d float64) float64

// DistanceCost is c = d, used by RNG- and MST-based protocols.
func DistanceCost(d float64) float64 { return d }

// EnergyCost returns the cost function c = d^alpha + fixed, the transmission
// energy model used by SPT-based (minimum-energy) protocols. The paper's
// simulation uses fixed = 0 with alpha = 2 (free space) and alpha = 4
// (two-ray ground reflection).
func EnergyCost(alpha, fixed float64) CostFn {
	if alpha < 1 {
		panic(fmt.Sprintf("topology: EnergyCost alpha %g < 1", alpha))
	}
	return func(d float64) float64 { return energyPow(d, alpha) + fixed }
}

// minNormal is the smallest positive normal float64, 2^-1022.
const minNormal = 0x1p-1022

// energyPow returns d^alpha, bit-identical to math.Pow(d, alpha). For the
// paper's exponents 2 and 4 it multiplies (d·d, then squared again), which
// rounds exactly as math.Pow's repeated squaring does whenever the result
// is a normal number or overflows to +Inf. A subnormal result is rounded
// twice by math.Pow and once here, so it, 0 and NaN fall through to
// math.Pow. The float64 conversions forbid fusing the products with a
// caller's addition. TestEnergyPowMatchesMathPow pins the identity.
func energyPow(d, alpha float64) float64 {
	if alpha == 2 || alpha == 4 { //lint:ignore float-eq only the exact integer exponents take the multiply path; every other alpha goes through math.Pow
		p := float64(d * d)
		if alpha > 3 {
			p = float64(p * p)
		}
		if p >= minNormal {
			return p
		}
	}
	return math.Pow(d, alpha)
}

// LinkLess is the strict total order over links required by the framework:
// primarily by cost, with the canonical (min id, max id) pair breaking ties
// (§3.1: "If two links have the same cost, IDs of end nodes can be used to
// break a tie"). A strict total order is what makes simultaneous link
// removals safe in Theorem 1's proof.
func LinkLess(c1 float64, u1, v1 int, c2 float64, u2, v2 int) bool {
	if c1 != c2 { //lint:ignore float-eq exact compare is Theorem 1's strict total order over link costs
		return c1 < c2
	}
	if u1 > v1 {
		u1, v1 = v1, u1
	}
	if u2 > v2 {
		u2, v2 = v2, u2
	}
	if u1 != u2 {
		return u1 < u2
	}
	return v1 < v2
}

// Squared-distance tie band. Selectors order links by Hypot distance
// (geom.Point.Dist), and a squared distance dx²+dy² decides that order
// without a square root whenever it lies outside the other link's band:
//
//	if  a < lo(s)  then  Hypot(a's link) < Hypot(s's link)
//	if  a > hi(s)  then  Hypot(a's link) > Hypot(s's link)
//
// where lo(s) = s·(1−2⁻⁴⁰) and hi(s) = s/(1−2⁻⁴⁰), provided s is
// sqTrusted. Both forms start from the same rounded dx and dy. In the
// normal range, dx²+dy² is within 2 ulp of its exact value (FMA only
// tightens this). math.Hypot, computed as p·√(1+(q/p)²), is within 3 ulp.
// The rounding of lo and hi adds 1 ulp more. Together that is under 20 ulp,
// 20·2⁻⁵³ relative on the squared scale, while the band is 2⁻⁴⁰ = 8192·2⁻⁵³
// wide: about 400 times the combined error. A pair inside the band is
// decided by computing both Hypots, exactly as before.
//
// Subnormal and infinite values break the relative bound, so s itself must
// lie in [2⁻⁹⁶⁰, 2⁹⁶⁰]. Then an underflowing product in a (absolute error
// below 2⁻¹⁰⁷³) is negligible against the band width (above 2⁻¹⁰⁰¹), a
// subnormal Hypot belongs to a distance far below √s, and an a that
// overflows to +Inf belongs to a distance above 2⁵¹¹, far beyond √s ≤ 2⁴⁸⁰.
// An untrusted s sends every comparison against it to Hypot. A NaN a
// compares false both ways and so falls in the band.
const (
	tieRel    = 0x1p-40
	sqSafeMin = 0x1p-960
	sqSafeMax = 0x1p960
)

// sqTrusted reports whether squared comparisons against s are conclusive
// outside its tie band.
func sqTrusted(s float64) bool { return s >= sqSafeMin && s <= sqSafeMax }

// tieBand returns the tie band [lo, hi] around the squared distance s.
func tieBand(s float64) (lo, hi float64) { return s * (1 - tieRel), s / (1 - tieRel) }
