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
	s.enc.Encode(e) //nolint:errcheck // observability output is best-effort
}

// --- hook methods; all nil-receiver safe, one pointer check when disabled ---

// RecordStart reports the start of a detailed (recording) episode.
func (o *Observer) RecordStart(cycle uint64) {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit(&Event{Type: EvRecordStart, Cycle: cycle})
}

// RecordEnd reports the end of a detailed episode.
func (o *Observer) RecordEnd(cycle, cycles uint64, insts int64) {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit(&Event{Type: EvRecordEnd, Cycle: cycle, Cycles: cycles, Insts: insts})
}

// ReplayStart reports the start of a fast-forward chain.
func (o *Observer) ReplayStart(cycle uint64) {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit(&Event{Type: EvReplayStart, Cycle: cycle})
}

// ReplayEnd reports the end of a fast-forward chain.
func (o *Observer) ReplayEnd(cycle, episodes, actions uint64) {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit(&Event{Type: EvReplayEnd, Cycle: cycle, Episodes: episodes, Actions: actions})
}

// PActionLimit reports the p-action cache exceeding its size limit.
func (o *Observer) PActionLimit(cycle uint64, bytes int) {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit(&Event{Type: EvPActionLimit, Cycle: cycle, Bytes: bytes})
}

// PActionFlush reports a whole-cache flush.
func (o *Observer) PActionFlush(cycle uint64, bytes int) {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit(&Event{Type: EvPActionFlush, Cycle: cycle, Bytes: bytes})
}

// PActionGC reports a copying collection.
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

// Snapshot reports p-action cache snapshot activity: op is "load",
// "fallback" or "save"; configs/actions/bytes describe the image moved
// (zero for a fallback); reason is the fallback cause, "" otherwise.
func (o *Observer) Snapshot(cycle uint64, op string, configs int, actions, bytes int, reason string) {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit(&Event{
		Type: EvSnapshot, Cycle: cycle, Op: op,
		Configs: configs, Actions: uint64(actions), Bytes: bytes, Reason: reason,
	})
}

// Quarantine reports a corrupt p-action chain being evicted: reason is the
// detected mismatch, actions the evicted node count, fp the poisoned
// configuration's hash.
func (o *Observer) Quarantine(cycle uint64, reason string, actions uint64, fp uint64) {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit(&Event{
		Type: EvQuarantine, Cycle: cycle, Reason: reason, Actions: actions,
		Fingerprint: fmt.Sprintf("%016x", fp),
	})
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

// Guard reports a memory-budget guard level transition.
func (o *Observer) Guard(cycle uint64, level string, bytes int) {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit(&Event{Type: EvGuard, Cycle: cycle, Op: level, Bytes: bytes})
}

// CheckpointStall reports wrong-path execution running off the text
// segment (direct.KindStall).
func (o *Observer) CheckpointStall() {
	if o == nil || o.events == nil {
		return
	}
	o.events.emit(&Event{Type: EvCheckpointStall, Cycle: o.lastCycle})
}
