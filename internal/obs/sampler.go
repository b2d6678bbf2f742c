package obs

import (
	"encoding/json"
	"io"

	"fastsim/internal/stats"
)

// Row is one time-series sample: cumulative totals plus rates over the
// interval since the previous row. Rates with an empty denominator (no
// loads this interval, no predictions yet) are reported as 0.
type Row struct {
	Cycle uint64 `json:"cycle"`
	Insts uint64 `json:"insts"`

	IPC         float64 `json:"ipc"`          // cumulative
	IntervalIPC float64 `json:"interval_ipc"` // over this interval

	L1HitRate      float64 `json:"l1_hit_rate"`     // interval
	L2HitRate      float64 `json:"l2_hit_rate"`     // interval
	MispredictRate float64 `json:"mispredict_rate"` // interval

	// p-action cache shape (zero on SlowSim runs).
	MemoConfigs uint64 `json:"memo_configs"`
	MemoActions uint64 `json:"memo_actions"`
	MemoBytes   int64  `json:"memo_bytes"`

	// DetailedFrac is the cumulative fraction of instructions retired by
	// the detailed simulator rather than replay (1 when not memoizing);
	// IntervalDetailedFrac is the same over this interval.
	DetailedFrac         float64 `json:"detailed_frac"`
	IntervalDetailedFrac float64 `json:"interval_detailed_frac"`

	// Load-latency quantile upper bounds (cumulative, power-of-two bucket
	// resolution).
	LoadLatP50 uint64 `json:"load_lat_p50"`
	LoadLatP95 uint64 `json:"load_lat_p95"`
	LoadLatP99 uint64 `json:"load_lat_p99"`
}

// prevCounters is the raw-counter snapshot backing interval rates.
type prevCounters struct {
	cycle              uint64
	insts              float64
	l1h, l1m, l2h, l2m float64
	preds, miss        float64
	detailed, replayed float64
}

type sampler struct {
	enc      *json.Encoder
	reg      *Registry
	interval uint64
	next     uint64 // cycle at or after which the next row is due
	last     uint64 // cycle of the last emitted row
	rows     uint64
	prev     prevCounters
}

func newSampler(w io.Writer, interval uint64, reg *Registry) *sampler {
	return &sampler{enc: json.NewEncoder(w), reg: reg, interval: interval, next: interval}
}

// sample emits one row at the current cycle and schedules the next interval
// boundary strictly beyond it, so an episode that fast-forwards across
// several boundaries yields a single row (sampling semantics under replay).
func (s *sampler) sample(now uint64) {
	v := s.reg.Value
	cur := prevCounters{
		cycle:    now,
		insts:    v(MetricRetiredInsts),
		l1h:      v(MetricL1Hits),
		l1m:      v(MetricL1Misses),
		l2h:      v(MetricL2Hits),
		l2m:      v(MetricL2Misses),
		preds:    v(MetricBPredPredicts),
		miss:     v(MetricBPredMispredicts),
		detailed: v(MetricMemoDetailedInsts),
		replayed: v(MetricMemoReplayInsts),
	}
	p := &s.prev
	row := Row{
		Cycle: now,
		Insts: uint64(cur.insts),

		IPC:         stats.Ratio(cur.insts, float64(now)),
		IntervalIPC: stats.Ratio(cur.insts-p.insts, float64(now-p.cycle)),

		L1HitRate:      stats.Ratio(cur.l1h-p.l1h, (cur.l1h-p.l1h)+(cur.l1m-p.l1m)),
		L2HitRate:      stats.Ratio(cur.l2h-p.l2h, (cur.l2h-p.l2h)+(cur.l2m-p.l2m)),
		MispredictRate: stats.Ratio(cur.miss-p.miss, cur.preds-p.preds),

		MemoConfigs: uint64(v(MetricMemoConfigs)),
		MemoActions: uint64(v(MetricMemoActions)),
		MemoBytes:   int64(v(MetricMemoBytes)),

		DetailedFrac:         detailedFrac(cur.detailed, cur.replayed),
		IntervalDetailedFrac: detailedFrac(cur.detailed-p.detailed, cur.replayed-p.replayed),
	}
	if h := s.reg.Hist(MetricLoadLatency); h != nil {
		row.LoadLatP50 = h.Quantile(0.50)
		row.LoadLatP95 = h.Quantile(0.95)
		row.LoadLatP99 = h.Quantile(0.99)
	}
	s.enc.Encode(&row) //nolint:errcheck // sticky in the bufio.Writer; Observer.Close reports it
	s.prev = cur
	s.last = now
	s.rows++
	s.next = (now/s.interval + 1) * s.interval
}

// detailedFrac attributes instructions to detailed simulation; with no memo
// attribution at all (SlowSim), every instruction is detailed.
func detailedFrac(detailed, replayed float64) float64 {
	if detailed+replayed <= 0 {
		return 1
	}
	return detailed / (detailed + replayed)
}
