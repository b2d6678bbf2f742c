package server

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"fastsim/internal/asm"
	"fastsim/internal/core"
	"fastsim/internal/faultinject"
	"fastsim/internal/memo"
	"fastsim/internal/program"
	"fastsim/internal/workloads"
)

// JobSpec is the wire-format job description: which program to simulate
// and under which machine configuration and memoization options. Exactly
// one of Workload or Asm selects the program. The zero value of every
// other field means "the default" — a spec of just {"workload":"099.go"}
// is a full FastSim run at scale 1.
type JobSpec struct {
	// Workload names a registered synthetic benchmark (see
	// internal/workloads); Input ("test", "train", "ref") or Scale sizes
	// it. Input wins when both are set.
	Workload string  `json:"workload,omitempty"`
	Input    string  `json:"input,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	// Asm is SV8 assembly source, assembled server-side; an alternative to
	// Workload for tenants submitting their own programs.
	Asm string `json:"asm,omitempty"`

	// Memoize defaults to true (FastSim); false runs the SlowSim baseline.
	Memoize *bool `json:"memoize,omitempty"`
	// Policy is the p-action cache replacement policy by name ("unbounded",
	// "flush", "fifo", "gc", "gengc" — see memo.ParsePolicy); Limit is its
	// byte limit.
	Policy string `json:"policy,omitempty"`
	Limit  int    `json:"limit,omitempty"`
	// VerifyRate enables shadow verification of cache hits in [0, 1].
	VerifyRate float64 `json:"verify_rate,omitempty"`
	// MemoBudget is the per-job hard p-action cache byte budget; it also
	// charges against the server's aggregate memory budget at admission.
	MemoBudget int `json:"memo_budget,omitempty"`

	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// TimeoutMS bounds the job's execution (not queue wait); 0 means the
	// server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Shared opts this job out of the server's shared p-action cache when
	// explicitly false; the default is to participate (memoized jobs only).
	Shared *bool `json:"shared,omitempty"`

	// ChaosSeed, when non-zero, arms the standard chaos-preset fault
	// injector for this job (faultinject.Chaos); Faults, when non-empty,
	// arms exactly those sites instead, seeded by ChaosSeed. Chaos
	// tooling only — every injected fault still ends bit-identical or
	// typed.
	ChaosSeed uint64      `json:"chaos_seed,omitempty"`
	Faults    []FaultSpec `json:"faults,omitempty"`
}

// FaultSpec is the wire form of one armed fault site (faultinject.Fault).
type FaultSpec struct {
	Site  string  `json:"site"`
	Nth   uint64  `json:"nth,omitempty"`
	Rate  float64 `json:"rate,omitempty"`
	Times int     `json:"times,omitempty"`
}

// memoize reports the spec's effective FastSim/SlowSim selection.
func (s *JobSpec) memoize() bool { return s.Memoize == nil || *s.Memoize }

// shared reports whether the job participates in the shared cache.
func (s *JobSpec) shared() bool { return s.memoize() && (s.Shared == nil || *s.Shared) }

// buildProgram validates the program half of the spec and assembles it.
func (s *JobSpec) buildProgram() (*program.Program, error) {
	switch {
	case s.Workload != "" && s.Asm != "":
		return nil, codeErr(CodeBadRequest, nil, "workload and asm are mutually exclusive")
	case s.Workload != "":
		w, ok := workloads.Get(s.Workload)
		if !ok {
			return nil, codeErr(CodeUnknownWorkload, nil, "unknown workload %q", s.Workload)
		}
		if s.Input != "" {
			p, err := w.BuildInput(s.Input)
			if err != nil {
				return nil, codeErr(CodeBadRequest, err, "%v", err)
			}
			return p, nil
		}
		scale := s.Scale
		if scale == 0 {
			scale = 1
		}
		p, err := w.Build(scale)
		if err != nil {
			return nil, codeErr(CodeBadRequest, err, "%v", err)
		}
		return p, nil
	case s.Asm != "":
		p, err := asm.Assemble("tenant", s.Asm)
		if err != nil {
			return nil, codeErr(CodeBadRequest, err, "assemble: %v", err)
		}
		return p, nil
	}
	return nil, codeErr(CodeBadRequest, nil, "spec selects no program (set workload or asm)")
}

// buildConfig translates the spec's options half into a core.Config. The
// shared cache is attached by the worker, not here, so config building
// stays pure.
func (s *JobSpec) buildConfig() (core.Config, error) {
	cfg := core.DefaultConfig()
	cfg.Memoize = s.memoize()
	if s.Policy != "" {
		p, err := memo.ParsePolicy(s.Policy)
		if err != nil {
			return cfg, codeErr(CodeBadRequest, err, "%v", err)
		}
		cfg.Memo.Policy = p
	}
	if s.Limit != 0 {
		cfg.Memo.Limit = s.Limit
	}
	if s.VerifyRate < 0 || s.VerifyRate > 1 {
		return cfg, codeErr(CodeBadRequest, nil, "verify_rate %v outside [0, 1]", s.VerifyRate)
	}
	cfg.Memo.VerifyRate = s.VerifyRate
	cfg.Memo.Budget = s.MemoBudget
	cfg.MaxCycles = s.MaxCycles
	if inj, err := s.buildInjector(); err != nil {
		return cfg, err
	} else if inj != nil {
		cfg.FaultInject = inj
	}
	return cfg, nil
}

// buildInjector arms the job's fault injector, if the spec asks for one.
// Site names are validated against the catalog so a typo is a 400, not a
// silently unarmed site.
func (s *JobSpec) buildInjector() (*faultinject.Injector, error) {
	if len(s.Faults) == 0 {
		if s.ChaosSeed != 0 {
			return faultinject.Chaos(s.ChaosSeed), nil
		}
		return nil, nil
	}
	known := make(map[faultinject.Site]bool)
	for _, site := range faultinject.Sites() {
		known[site] = true
	}
	faults := make([]faultinject.Fault, 0, len(s.Faults))
	for _, f := range s.Faults {
		site := faultinject.Site(f.Site)
		if !known[site] {
			return nil, codeErr(CodeBadRequest, nil, "unknown fault site %q", f.Site)
		}
		faults = append(faults, faultinject.Fault{Site: site, Nth: f.Nth, Rate: f.Rate, Times: f.Times})
	}
	return faultinject.New(s.ChaosSeed, faults...), nil
}

// State is a job's lifecycle position. The machine is strictly forward:
//
//	queued → running → done
//	               ↘  failed      (typed code, after any retries)
//	queued/running → cancelled    (client cancel, disconnect, or deadline)
//
// A retry moves running → running (attempt+1); it never re-queues.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether st is an end state.
func terminal(st State) bool {
	return st == StateDone || st == StateFailed || st == StateCancelled
}

// Job is one accepted simulation job. All mutable fields are guarded by
// mu; the identity fields (ID, Seq, Spec) are immutable after Submit.
type Job struct {
	ID   string
	Seq  uint64
	Spec JobSpec

	runCtx    context.Context         // cancelled by client cancel/disconnect or server close
	cancel    context.CancelCauseFunc // cancels runCtx with a typed cause
	done      chan struct{}           // closed on entering a terminal state
	sync      bool                    // a synchronous (/v1/run) job
	charge    int64                   // bytes charged against the server memory budget
	stopAfter func() bool             // releases the sync job's server-shutdown watch

	mu sync.Mutex
	// fastsim:guarded-by(mu)
	state State
	// fastsim:guarded-by(mu)
	attempt int
	// fastsim:guarded-by(mu)
	code Code
	// fastsim:guarded-by(mu)
	msg string
	// fastsim:guarded-by(mu)
	result *core.Result
	// fastsim:guarded-by(mu)
	digest string
	// fastsim:guarded-by(mu)
	recovered bool
}

// snapshotView copies the mutable state out under the lock.
func (j *Job) snapshotView() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		State:     j.state,
		Attempt:   j.attempt,
		Code:      j.code,
		Msg:       j.msg,
		Digest:    j.digest,
		Recovered: j.recovered,
	}
	if j.result != nil {
		v.Result = &ResultView{
			Cycles:   j.result.Cycles,
			Insts:    j.result.Insts,
			IPC:      j.result.IPC(),
			Checksum: j.result.Checksum,
			ExitCode: j.result.ExitCode,
			Memoized: j.result.Memoized,
			Warmed:   j.result.Shared.Warmed,
			Poisoned: j.result.Shared.Poisoned,
		}
	}
	return v
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job reaches a terminal state or ctx is done, and
// returns the final view.
func (j *Job) Wait(ctx context.Context) (JobView, error) {
	select {
	case <-j.done:
		return j.snapshotView(), nil
	case <-ctx.Done():
		return j.snapshotView(), ctx.Err()
	}
}

// JobView is the JSON shape of a job in API responses.
type JobView struct {
	ID        string      `json:"id"`
	State     State       `json:"state"`
	Attempt   int         `json:"attempt,omitempty"`
	Code      Code        `json:"code,omitempty"`
	Msg       string      `json:"message,omitempty"`
	Digest    string      `json:"digest,omitempty"`
	Recovered bool        `json:"recovered,omitempty"`
	Result    *ResultView `json:"result,omitempty"`
}

// ResultView is the JSON shape of a completed job's results: the
// architectural outcome and headline statistics, plus how the shared
// cache treated the run. Digest (on JobView) covers the full Result, so
// bit-identity can be asserted without shipping every statistic.
type ResultView struct {
	Cycles   uint64  `json:"cycles"`
	Insts    uint64  `json:"insts"`
	IPC      float64 `json:"ipc"`
	Checksum uint32  `json:"checksum"`
	ExitCode uint32  `json:"exit_code"`
	Memoized bool    `json:"memoized"`
	Warmed   bool    `json:"warmed,omitempty"`
	Poisoned bool    `json:"poisoned,omitempty"`
}

// resultDigest hashes the deterministic portion of a Result — everything
// except how-the-run-went accounting (WallTime, Memo, Snapshot, Shared,
// Memoized), which legitimately varies with warm starts and policies. Two
// jobs for the same spec must produce equal digests no matter which
// tenant warmed whom; the chaos suite asserts exactly that.
func resultDigest(r *core.Result) string {
	c := *r
	c.WallTime = 0
	c.Memoized = false
	c.Memo = memo.Stats{}
	c.Snapshot = core.SnapshotStatus{}
	c.Shared = core.SharedStatus{}
	b, err := json.Marshal(&c)
	if err != nil {
		// A Result is plain data; Marshal cannot fail on it. Guard anyway.
		return fmt.Sprintf("unhashable:%v", err)
	}
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck // fnv.Write never fails
	return fmt.Sprintf("%016x", h.Sum64())
}

// defaultJobTimeout bounds jobs that set no explicit deadline.
const defaultJobTimeout = 5 * time.Minute

// timeout returns the job's execution deadline.
func (s *JobSpec) timeout(def time.Duration) time.Duration {
	if s.TimeoutMS > 0 {
		return time.Duration(s.TimeoutMS) * time.Millisecond
	}
	if def > 0 {
		return def
	}
	return defaultJobTimeout
}
