package obs

import "sync/atomic"

// HistSummary is the published digest of one histogram.
type HistSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

// MetricsSnapshot is an immutable point-in-time copy of the metrics
// registry, safe to share across goroutines: the debug server reads these,
// never the registry itself (which is confined to the simulation
// goroutine, like the heartbeat's atomics).
type MetricsSnapshot struct {
	Seq        uint64                 `json:"seq"`
	Cycle      uint64                 `json:"cycle"`
	Values     map[string]float64     `json:"values"`
	Histograms map[string]HistSummary `json:"histograms,omitempty"`
}

// Published is the cross-goroutine hand-off point for metrics snapshots:
// the simulation goroutine stores a fresh MetricsSnapshot at a bounded
// cycle cadence (Options.Publish), and any number of reader goroutines —
// the debug server's handlers — load the latest one. The zero value is
// ready to use.
type Published struct {
	p atomic.Pointer[MetricsSnapshot]
}

// Latest returns the most recently published snapshot, or nil if nothing
// has been published yet. The returned snapshot is immutable.
func (pb *Published) Latest() *MetricsSnapshot {
	if pb == nil {
		return nil
	}
	return pb.p.Load()
}

// publish builds a registry snapshot and swaps it in. Called from the
// simulation goroutine only (Tick / Finish), never on the publisher-off
// path.
func (o *Observer) publish(now uint64) {
	o.pubSeq++
	snap := &MetricsSnapshot{Seq: o.pubSeq, Cycle: now, Values: o.reg.Snapshot()}
	if len(o.reg.hists) > 0 {
		snap.Histograms = make(map[string]HistSummary, len(o.reg.hists))
		//fastsim:order-independent: builds a map; JSON encoding sorts keys
		for name, h := range o.reg.hists {
			snap.Histograms[name] = HistSummary{
				Count: h.Count(), Mean: h.Mean(),
				P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
				Max: h.Max(),
			}
		}
	}
	o.pub.p.Store(snap)
	o.pubNext = (now/o.pubInterval + 1) * o.pubInterval
}
