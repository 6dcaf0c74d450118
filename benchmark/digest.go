package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"mstc/internal/manet"
)

// resultDigest is a sha256 over the simulated statistics of one result,
// field by field with floats as exact IEEE-754 bits. It names each field
// it covers, so a field added to manet.Result later does not move it; any
// change to a covered statistic does.
func resultDigest(r manet.Result) string {
	h := sha256.New()
	writeResult(h, r)
	return hex.EncodeToString(h.Sum(nil))
}

// passDigest is a sha256 over the results of one pass, in task order.
func passDigest(rs []manet.Result) string {
	h := sha256.New()
	for _, r := range rs {
		writeResult(h, r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeResult(h hash.Hash, r manet.Result) {
	var b [8]byte
	word := func(w uint64) {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	f := func(x float64) { word(math.Float64bits(x)) }
	i := func(x int) { word(uint64(int64(x))) }
	h.Write([]byte(r.Protocol))
	h.Write([]byte{0})
	f(r.Connectivity)
	i(r.Floods)
	f(r.AvgTxRange)
	f(r.AvgLogicalDegree)
	f(r.AvgPhysicalDegree)
	f(r.SnapshotConnectivity)
	i(r.Snapshots)
	i(r.HelloTx)
	i(r.DataTx)
	f(r.DataEnergy)
	f(r.HelloEnergy)
	t := r.Traffic
	h.Write([]byte(t.Mode))
	h.Write([]byte{0})
	i(t.Sent)
	i(t.Delivered)
	f(t.DeliveryRatio)
	f(t.AvgDelay)
	f(t.AvgHops)
	i(t.DataTx)
	i(t.RREQTx)
	i(t.RREPTx)
	i(t.RERRTx)
	i(t.TCTx)
	f(t.ControlPerData)
}
