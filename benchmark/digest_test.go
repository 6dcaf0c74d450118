package main

import (
	"testing"

	"mstc/internal/manet"
)

func sampleResult() manet.Result {
	return manet.Result{
		Protocol: "RNG", Connectivity: 0.975, Floods: 75, AvgTxRange: 101.25,
		AvgLogicalDegree: 2.5, AvgPhysicalDegree: 19.25, HelloTx: 2011, DataTx: 7311,
		DataEnergy: 1234.5, HelloEnergy: 2011,
		Traffic: manet.TrafficResult{Mode: "aodv", Sent: 100, Delivered: 40, RERRTx: 3},
	}
}

// The digest is a function of the covered statistics only: pinned here so
// a change to its encoding, which would silently invalidate pins.json, is
// caught.
func TestResultDigestStable(t *testing.T) {
	const want = "f08a867a0bd8f1059b6d15a0ed81d24426968cd7933f9e6015a5a002051bc676"
	got := resultDigest(sampleResult())
	if got != resultDigest(sampleResult()) {
		t.Fatal("digest differs between two calls")
	}
	if got != want {
		t.Errorf("resultDigest = %s, want %s", got, want)
	}
}

func TestDigestSeesEveryStatistic(t *testing.T) {
	base := resultDigest(sampleResult())
	for name, mutate := range map[string]func(*manet.Result){
		"Connectivity":  func(r *manet.Result) { r.Connectivity += 1e-15 },
		"HelloTx":       func(r *manet.Result) { r.HelloTx++ },
		"DataEnergy":    func(r *manet.Result) { r.DataEnergy *= 1.0000001 },
		"Protocol":      func(r *manet.Result) { r.Protocol = "RNG2" },
		"Traffic.Mode":  func(r *manet.Result) { r.Traffic.Mode = "olsr" },
		"Traffic.RERR":  func(r *manet.Result) { r.Traffic.RERRTx++ },
		"Traffic.Hops":  func(r *manet.Result) { r.Traffic.AvgHops = 2 },
		"SnapshotCount": func(r *manet.Result) { r.Snapshots = 1 },
	} {
		r := sampleResult()
		mutate(&r)
		if resultDigest(r) == base {
			t.Errorf("changing %s left the digest unchanged", name)
		}
	}
	a, b := sampleResult(), sampleResult()
	b.HelloTx++
	if passDigest([]manet.Result{a, b}) == passDigest([]manet.Result{b, a}) {
		t.Error("pass digest must depend on task order")
	}
}
