package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Event types emitted on the structured stream.
const (
	// EvRecordStart / EvRecordEnd bracket one episode simulated in detail
	// by the memoizing engine (end carries the episode's cycle and
	// instruction payload).
	EvRecordStart = "record_start"
	EvRecordEnd   = "record_end"
	// EvReplayStart / EvReplayEnd bracket one fast-forward run: an
	// unbroken chain of replayed episodes (end carries the episode and
	// action counts of the chain).
	EvReplayStart = "replay_start"
	EvReplayEnd   = "replay_end"
	// EvPActionLimit fires when the p-action cache exceeds its configured
	// limit, immediately before the replacement policy acts.
	EvPActionLimit = "paction_limit"
	// EvPActionFlush reports a whole-cache flush (PolicyFlush).
	EvPActionFlush = "paction_flush"
	// EvPActionGC reports a copying collection (PolicyGC / PolicyGenGC).
	EvPActionGC = "paction_gc"
	// EvRollback reports a resolved mispredicted branch rolling back
	// direct execution. Its cycle is the most recent observation point.
	EvRollback = "rollback"
	// EvCheckpointStall reports wrong-path direct execution running off
	// the text segment and stalling fetch until rollback. Its cycle is the
	// most recent observation point.
	EvCheckpointStall = "checkpoint_stall"
	// EvSnapshot reports p-action cache snapshot activity: Op is "load"
	// (warm start), "fallback" (a snapshot was present but rejected —
	// Reason says why — and the run started cold), or "save". Snapshot
	// events always carry cycle 0 (load) or the final cycle (save), never
	// wall-clock time, preserving stream determinism.
	EvSnapshot = "snapshot"
	// EvQuarantine reports a corrupt or diverging p-action chain being
	// atomically evicted: Reason is the detected mismatch, Actions the
	// evicted node count, Fingerprint the poisoned configuration's hash.
	// The run self-heals by re-recording the configuration from scratch.
	EvQuarantine = "memo_quarantine"
	// EvGuard reports a memory-budget guard transition: Op is the new
	// level ("normal", "pressure" or "detailed-only") and Bytes the
	// p-action footprint at the transition.
	EvGuard = "guard"
	// EvShared reports shared p-action cache activity: Op is "acquire" (the
	// run warm-started from a published graph), "publish" (the run's merged
	// graph became the new epoch), "reject" (a stale or fenced publish was
	// dropped), or "poison" (the run quarantined chains and dropped the
	// epoch it imported so no neighbour replays them). Epoch carries the
	// entry epoch involved. Shared events only appear when a SharedCache is
	// attached; a run without one emits none, keeping single-tenant event
	// streams byte-identical to before.
	EvShared = "memo_shared"
)

// Event is one line of the JSONL event stream. Type and Cycle are always
// present; the remaining fields depend on Type (see the type constants and
// docs/OBSERVABILITY.md). Events carry simulated time only — never wall
// clock — so the stream is deterministic for a given program and config.
type Event struct {
	Type  string `json:"type"`
	Cycle uint64 `json:"cycle"`

	Cycles   uint64 `json:"cycles,omitempty"`   // record_end: episode length
	Insts    int64  `json:"insts,omitempty"`    // record_end: instructions retired
	Episodes uint64 `json:"episodes,omitempty"` // replay_end: episodes replayed
	Actions  uint64 `json:"actions,omitempty"`  // replay_end: actions replayed

	Bytes      int    `json:"bytes,omitempty"`       // paction_*: footprint before
	BytesAfter int    `json:"bytes_after,omitempty"` // paction_gc: footprint after
	Live       uint64 `json:"live,omitempty"`        // paction_gc: live actions before
	Survivors  uint64 `json:"survivors,omitempty"`   // paction_gc: actions kept
	Minor      bool   `json:"minor,omitempty"`       // paction_gc: minor collection

	Rec int `json:"rec,omitempty"` // rollback: control-record index

	Op      string `json:"op,omitempty"`      // snapshot: load / fallback / save; guard: level
	Configs int    `json:"configs,omitempty"` // snapshot: configurations moved
	Reason  string `json:"reason,omitempty"`  // snapshot fallback / memo_quarantine: cause

	Fingerprint string `json:"fingerprint,omitempty"` // memo_quarantine: poisoned config hash (hex)

	Epoch uint64 `json:"epoch,omitempty"` // memo_shared: publication epoch
}

type eventSink struct {
	enc *json.Encoder
	n   uint64
}

func newEventSink(w io.Writer) *eventSink {
	return &eventSink{enc: json.NewEncoder(w)}
}

func (s *eventSink) emit(e *Event) {
	s.n++
	s.enc.Encode(e) //nolint:errcheck // sticky in the bufio.Writer; Observer.Close reports it
}

// --- hook methods; all nil-receiver safe, one pointer check when disabled.
// Each reports one occurrence to every attached sink. ---

// RecordBegin reports the start of a detailed (recording) episode; kind is
// one of the Span* constants (record, verify, degraded, resume) and names
// the episode's span.
func (o *Observer) RecordBegin(kind string, cycle uint64) {
	if o == nil {
		return
	}
	if o.events != nil {
		o.events.emit(&Event{Type: EvRecordStart, Cycle: cycle})
	}
	if o.spans != nil {
		o.spans.push("record", kind, cycle)
	}
}

// RecordEnd reports the end of a detailed episode with its payload: the
// episode's cycle count and retired instructions.
func (o *Observer) RecordEnd(cycle, cycles uint64, insts int64) {
	if o == nil {
		return
	}
	if o.events != nil {
		o.events.emit(&Event{Type: EvRecordEnd, Cycle: cycle, Cycles: cycles, Insts: insts})
	}
	if s := o.spans; s != nil && s.end(s.ts(cycle), "memo") {
		s.argU("cycles", cycles)
		s.argI("insts", insts)
		s.argEnd()
	}
}

// ReplayBegin reports the start of a fast-forward chain.
func (o *Observer) ReplayBegin(cycle uint64) {
	if o == nil {
		return
	}
	if o.events != nil {
		o.events.emit(&Event{Type: EvReplayStart, Cycle: cycle})
	}
	if o.spans != nil {
		o.spans.push("replay", "", cycle)
	}
	if o.pipe != nil {
		o.pipe.ffStart = cycle
	}
}

// ReplayEnd reports the end of a fast-forward chain with the chain's
// episode and action counts.
func (o *Observer) ReplayEnd(cycle, episodes, actions uint64) {
	if o == nil {
		return
	}
	if o.events != nil {
		o.events.emit(&Event{Type: EvReplayEnd, Cycle: cycle, Episodes: episodes, Actions: actions})
	}
	if s := o.spans; s != nil && s.end(s.ts(cycle), "memo") {
		s.argU("episodes", episodes)
		s.argU("actions", actions)
		s.argEnd()
	}
	if o.pipe != nil && actions > 0 {
		o.pipe.chain(cycle, episodes, actions)
	}
}

// DetailedCycle reports the end of one detailed-simulation cycle: now is
// the cycle just completed and v the pipeline that simulated it. Only the
// pipetrace sink reads it.
func (o *Observer) DetailedCycle(now uint64, v PipetraceView) {
	if o == nil || o.pipe == nil {
		return
	}
	o.pipe.cycle(now, v)
}

// PActionLimit reports the p-action cache exceeding its size limit,
// immediately before the replacement policy acts.
func (o *Observer) PActionLimit(cycle uint64, bytes int) {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit(&Event{Type: EvPActionLimit, Cycle: cycle, Bytes: bytes})
}

// Reclaim ops: the replacement-policy action a reclaim span is named by.
const (
	ReclaimFlush    = "flush"     // whole-cache flush (PolicyFlush)
	ReclaimGC       = "gc"        // major copying collection
	ReclaimMinorGC  = "minor-gc"  // minor collection (PolicyGenGC)
	ReclaimForcedGC = "forced-gc" // budget guard's forced major collection
)

// ReclaimBegin reports a replacement-policy action starting on a cache of
// the given footprint; op is one of the Reclaim* constants. A flush is also
// an event on the stream (collections report theirs through PActionGC).
func (o *Observer) ReclaimBegin(op string, cycle uint64, bytes int) {
	if o == nil {
		return
	}
	if o.events != nil && op == ReclaimFlush {
		o.events.emit(&Event{Type: EvPActionFlush, Cycle: cycle, Bytes: bytes})
	}
	if o.spans != nil {
		o.spans.push("reclaim", op, cycle)
	}
}

// ReclaimEnd reports a replacement-policy action finishing, with the
// footprint before and after; the span trace also samples the memo.bytes
// counter at the end stamp.
func (o *Observer) ReclaimEnd(cycle uint64, bytesBefore, bytesAfter int) {
	if o == nil {
		return
	}
	if s := o.spans; s != nil {
		end := s.ts(cycle)
		if s.end(end, "memo") {
			s.argI("bytes_before", int64(bytesBefore))
			s.argI("bytes_after", int64(bytesAfter))
			s.argEnd()
			s.counter("memo.bytes", end, int64(bytesAfter))
		}
	}
}

// PActionGC reports a copying collection's outcome.
func (o *Observer) PActionGC(cycle uint64, minor bool, live, survivors uint64, bytesAfter int) {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit(&Event{
		Type: EvPActionGC, Cycle: cycle, Minor: minor,
		Live: live, Survivors: survivors, BytesAfter: bytesAfter,
	})
}

// Rollback reports a resolved misprediction rolling back direct execution.
func (o *Observer) Rollback(recIdx int) {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit(&Event{Type: EvRollback, Cycle: o.lastCycle, Rec: recIdx})
}

// SnapshotBegin reports p-action cache snapshot IO starting; op is "load"
// or "save" and names the span.
func (o *Observer) SnapshotBegin(op string, cycle uint64) {
	if o == nil || o.spans == nil {
		return
	}
	o.spans.push("snapshot", op, cycle)
}

// SnapshotEnd reports snapshot IO finishing: configs/actions/bytes describe
// the image moved (zero when none was). outcome is what the event stream
// reports — "load", "fallback" (reason says why the snapshot was rejected)
// or "save" — and "" when there is nothing to report (no file to load, a
// failed save).
func (o *Observer) SnapshotEnd(cycle uint64, outcome string, configs, actions, bytes int, reason string) {
	if o == nil {
		return
	}
	if o.events != nil && outcome != "" {
		o.events.emit(&Event{
			Type: EvSnapshot, Cycle: cycle, Op: outcome,
			Configs: configs, Actions: uint64(actions), Bytes: bytes, Reason: reason,
		})
	}
	if s := o.spans; s != nil && s.end(s.ts(cycle), "snapshot") {
		s.argI("configs", int64(configs))
		s.argI("actions", int64(actions))
		s.argI("bytes", int64(bytes))
		s.argEnd()
	}
}

// Quarantine reports a corrupt p-action chain being evicted: reason is the
// detected mismatch, actions the evicted node count, fp the poisoned
// configuration's hash.
func (o *Observer) Quarantine(cycle uint64, reason string, actions uint64, fp uint64) {
	if o == nil {
		return
	}
	if o.events != nil {
		o.events.emit(&Event{
			Type: EvQuarantine, Cycle: cycle, Reason: reason, Actions: actions,
			Fingerprint: fmt.Sprintf("%016x", fp),
		})
	}
	if s := o.spans; s != nil {
		s.instant("quarantine", "memo", s.ts(cycle))
		s.argS("reason", reason)
		s.argU("actions", actions)
		s.argEnd()
	}
}

// Shared reports shared p-action cache activity: op is "acquire",
// "publish", "reject" or "poison"; configs/actions describe the graph
// moved (zero when none), epoch the entry epoch involved, fp the run
// fingerprint.
func (o *Observer) Shared(cycle uint64, op string, configs, actions int, epoch, fp uint64) {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit(&Event{
		Type: EvShared, Cycle: cycle, Op: op,
		Configs: configs, Actions: uint64(actions), Epoch: epoch,
		Fingerprint: fmt.Sprintf("%016x", fp),
	})
}

// Guard reports a memory-budget guard level transition and the p-action
// footprint that triggered it.
func (o *Observer) Guard(cycle uint64, level string, bytes int) {
	if o == nil {
		return
	}
	if o.events != nil {
		o.events.emit(&Event{Type: EvGuard, Cycle: cycle, Op: level, Bytes: bytes})
	}
	if s := o.spans; s != nil {
		s.instant("guard", "memo", s.ts(cycle))
		s.argS("level", level)
		s.argI("bytes", int64(bytes))
		s.argEnd()
	}
}

// CheckpointStall reports wrong-path execution running off the text
// segment (direct.KindStall).
func (o *Observer) CheckpointStall() {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit(&Event{Type: EvCheckpointStall, Cycle: o.lastCycle})
}
