package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fastsim/internal/core"
	"fastsim/internal/faultinject"
	"fastsim/internal/memo"
	"fastsim/internal/program"
	"fastsim/internal/workloads"
)

// Options configures New. The zero value is a working single-worker
// in-memory server (no journal, no fault injection).
type Options struct {
	// Workers is the simulation worker-pool size (default 2). Each worker
	// runs one job at a time; jobs never share a goroutine, so a panicking
	// or slow tenant cannot take a neighbour down with it.
	Workers int
	// QueueDepth bounds jobs admitted but not yet running (default 64);
	// submissions beyond it are shed with CodeQueueFull.
	QueueDepth int
	// MemBudget, when positive, bounds the aggregate p-action cache bytes
	// of admitted-but-unfinished jobs: each job charges its MemoBudget (or
	// DefaultJobBudget when unset) at admission and releases it when it
	// finishes; submissions that would exceed the budget are shed with
	// CodeMemoryBudget.
	MemBudget int64
	// DefaultJobBudget is the admission charge for jobs that set no
	// MemoBudget (default 64 MiB). It is an accounting estimate only — the
	// per-job hard budget is still spec.MemoBudget.
	DefaultJobBudget int64

	// JournalPath, when non-empty, enables the crash-safe job journal: a
	// JSONL file fsynced on every lifecycle transition. On New, existing
	// journal state is recovered — finished jobs reappear with their
	// digests, unfinished jobs are re-queued — and the journal is
	// compacted. See journal.go.
	JournalPath string

	// Shared is the process-wide shared p-action cache tenants warm each
	// other through; nil builds a fresh one. A job opts out with
	// JobSpec.Shared = false.
	Shared *memo.SharedCache

	// Inject, when non-nil, arms the server-side fault sites
	// (server.accept, server.journal.write) for chaos testing. Job-level
	// sites are armed per job via JobSpec.ChaosSeed/Faults instead.
	Inject *faultinject.Injector

	// DefaultTimeout bounds jobs that set no TimeoutMS (default 5m).
	DefaultTimeout time.Duration
	// DrainTimeout bounds Close's graceful drain before running jobs are
	// hard-cancelled (default 30s).
	DrainTimeout time.Duration

	// runSim substitutes the simulation entry point; tests model panics,
	// hangs and crashes with it. Nil selects core.RunContext. It must be
	// set before New so recovered jobs never race a later swap.
	runSim func(ctx context.Context, prog *program.Program, cfg core.Config) (*core.Result, error)
}

// Stats is the /v1/stats view of the server's counters.
type Stats struct {
	Accepted  uint64 `json:"accepted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	// Retries always reads 0: a job runs once, and a failed run ends on
	// its typed code. The field stays because the perfbench service
	// workload reads it.
	Retries   uint64 `json:"retries"`
	Recovered uint64 `json:"recovered"`
	// Shed counts submissions rejected by admission control (queue_full,
	// memory_budget, draining, accept_fault).
	Shed uint64 `json:"shed"`

	Queued   int  `json:"queued"`
	Running  int  `json:"running"`
	Draining bool `json:"draining"`

	MemInUse  int64 `json:"mem_in_use"`
	MemBudget int64 `json:"mem_budget,omitempty"`

	JournalAppends uint64 `json:"journal_appends,omitempty"`
	JournalTorn    uint64 `json:"journal_torn,omitempty"`

	Shared *memo.SharedStats `json:"shared,omitempty"`
}

// Server is the multi-tenant simulation service. Build with New, serve
// its Handler, stop with Close (graceful) — see docs/SERVER.md.
type Server struct {
	opts   Options
	shared *memo.SharedCache
	jnl    *journal

	// runSim executes one simulation (Options.runSim or core.RunContext).
	runSim func(ctx context.Context, prog *program.Program, cfg core.Config) (*core.Result, error)

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	injMu sync.Mutex // serializes Options.Inject across goroutines

	// testHookAcceptAppend, when non-nil, runs between the durable accept
	// and the enqueue — the window where submit holds no lock. Tests use
	// it to force the submit/drain and queue-depth interleavings
	// deterministically; it must be set before any Submit call.
	testHookAcceptAppend func()

	wg   sync.WaitGroup
	cond *sync.Cond // signalled on queue pushes and job completions; see mu

	mu sync.Mutex
	// fastsim:guarded-by(mu)
	jobs map[string]*Job
	// fastsim:guarded-by(mu)
	order []string
	// fastsim:guarded-by(mu)
	pending []*Job
	// pendingReserved counts submissions past admission but not yet in
	// pending (the lock is dropped for the journal fsync); the queue-depth
	// check includes it so concurrent submits cannot overshoot the bound.
	// fastsim:guarded-by(mu)
	pendingReserved int
	// fastsim:guarded-by(mu)
	nextSeq uint64
	// fastsim:guarded-by(mu)
	draining bool
	// fastsim:guarded-by(mu)
	stopping bool
	// fastsim:guarded-by(mu)
	memInUse int64
	// fastsim:guarded-by(mu)
	running int
	// fastsim:guarded-by(mu)
	counters struct {
		accepted, completed, failed, cancelled, recovered, shed uint64
	}
}

// New builds and starts a server: recovers the journal (if configured),
// re-queues unfinished jobs, and launches the worker pool.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.DefaultJobBudget <= 0 {
		opts.DefaultJobBudget = 64 << 20
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 30 * time.Second
	}

	s := &Server{
		opts:   opts,
		shared: opts.Shared,
		runSim: opts.runSim,
		jobs:   make(map[string]*Job),
	}
	if s.shared == nil {
		s.shared = memo.NewShared()
	}
	if s.runSim == nil {
		s.runSim = core.RunContext
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())

	if opts.JournalPath != "" {
		if err := s.recover(); err != nil {
			return nil, fmt.Errorf("server: journal recovery: %w", err)
		}
	}

	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover replays the journal: finished jobs reappear as terminal views
// (so restarted clients can still fetch their digests), unfinished jobs
// are re-queued from their accepted specs, and the journal is compacted
// down to exactly the surviving accept records.
func (s *Server) recover() error {
	recs, dropped, err := readJournal(s.opts.JournalPath)
	if err != nil {
		return err
	}
	type hist struct {
		accept *journalRec
		last   *journalRec // latest terminal record, if any
	}
	byID := make(map[string]*hist)
	var ids []string
	for i := range recs {
		r := &recs[i]
		h := byID[r.Job]
		if h == nil {
			h = &hist{}
			byID[r.Job] = h
			ids = append(ids, r.Job)
		}
		// Other records (start, and the retry lines older journals may
		// hold) carry nothing recovery needs.
		switch r.Rec {
		case recAccept:
			h.accept = r
		case recDone, recFail, recCancel:
			h.last = r
		}
	}

	// New calls recover before the workers start, so the locks below are
	// uncontended; they are taken anyway to keep the discipline uniform.
	s.mu.Lock()
	defer s.mu.Unlock()
	var live []journalRec
	var maxSeq uint64
	for _, id := range ids {
		h := byID[id]
		if h.accept == nil {
			continue // transition for a job whose accept fell in the torn tail
		}
		if h.accept.JobSeq > maxSeq {
			maxSeq = h.accept.JobSeq
		}
		j := &Job{ID: id, Seq: h.accept.JobSeq, done: make(chan struct{})}
		if h.accept.Spec != nil {
			j.Spec = *h.accept.Spec
		}
		j.mu.Lock()
		if h.last != nil {
			// Finished before the crash: keep the terminal view.
			switch h.last.Rec {
			case recDone:
				j.state = StateDone
			case recFail:
				j.state = StateFailed
			default:
				j.state = StateCancelled
			}
			j.code = h.last.Code
			j.msg = h.last.Msg
			j.digest = h.last.Digest
			j.mu.Unlock()
			close(j.done)
			s.jobs[id] = j
			s.order = append(s.order, id)
			continue
		}
		// Accepted but unfinished: re-queue from the durable spec.
		j.state = StateQueued
		j.recovered = true
		j.mu.Unlock()
		j.charge = s.jobCharge(&j.Spec)
		j.runCtx, j.cancel = context.WithCancelCause(s.baseCtx)
		live = append(live, journalRec{Rec: recAccept, Job: id, JobSeq: j.Seq, Spec: &j.Spec})
		s.jobs[id] = j
		s.order = append(s.order, id)
		s.pending = append(s.pending, j)
		s.memInUse += j.charge
		s.counters.recovered++
	}
	s.nextSeq = maxSeq

	jnl, err := openJournal(s.opts.JournalPath, 0, s.opts.Inject, &s.injMu)
	if err != nil {
		return err
	}
	if err := jnl.compact(live); err != nil {
		jnl.close() //nolint:errcheck // already failing
		return err
	}
	jnl.noteTorn(dropped)
	s.jnl = jnl
	return nil
}

// jobCharge is the admission accounting charge for a spec.
func (s *Server) jobCharge(spec *JobSpec) int64 {
	if spec.MemoBudget > 0 {
		return int64(spec.MemoBudget)
	}
	return s.opts.DefaultJobBudget
}

// Submit validates, durably accepts and enqueues an asynchronous job.
// Admission sheds typed errors: CodeDraining during shutdown,
// CodeAcceptFault when the server.accept site fires or the accept record
// cannot be journalled, CodeQueueFull and CodeMemoryBudget under load.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	return s.submit(spec, nil)
}

// submit is Submit plus the synchronous-job variant: when syncCtx is
// non-nil the job's cancellation follows it (a dropped client connection
// cancels the run at its next episode boundary).
func (s *Server) submit(spec JobSpec, syncCtx context.Context) (*Job, error) {
	// Cheap spec validation first: selection and option errors are 400s,
	// not admission shedding. The program itself is assembled by the
	// worker.
	if err := validateSpec(&spec); err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.draining || s.stopping {
		s.counters.shed++
		s.mu.Unlock()
		return nil, codeErr(CodeDraining, nil, "server is draining")
	}
	if s.opts.Inject != nil {
		s.injMu.Lock()
		fired := s.opts.Inject.Fire(faultinject.SiteServerAccept)
		s.injMu.Unlock()
		if fired {
			s.counters.shed++
			s.mu.Unlock()
			return nil, codeErr(CodeAcceptFault, faultinject.ErrInjected, "injected accept fault")
		}
	}
	if len(s.pending)+s.pendingReserved >= s.opts.QueueDepth {
		s.counters.shed++
		s.mu.Unlock()
		return nil, codeErr(CodeQueueFull, nil, "queue full (%d jobs)", s.opts.QueueDepth)
	}
	charge := s.jobCharge(&spec)
	if s.opts.MemBudget > 0 && s.memInUse+charge > s.opts.MemBudget {
		s.counters.shed++
		s.mu.Unlock()
		return nil, codeErr(CodeMemoryBudget, nil,
			"memory budget exhausted (%d in use + %d requested > %d)", s.memInUse, charge, s.opts.MemBudget)
	}
	s.nextSeq++
	seq := s.nextSeq
	s.memInUse += charge
	s.pendingReserved++
	s.mu.Unlock()

	job := &Job{
		ID:     fmt.Sprintf("j%06d", seq),
		Seq:    seq,
		Spec:   spec,
		done:   make(chan struct{}),
		sync:   syncCtx != nil,
		charge: charge,
		state:  StateQueued,
	}
	parent := s.baseCtx
	if syncCtx != nil {
		parent = syncCtx
	}
	job.runCtx, job.cancel = context.WithCancelCause(parent)
	if syncCtx != nil {
		// A synchronous job must still die with the server; the watch is
		// released when the job finishes (see finish).
		job.stopAfter = context.AfterFunc(s.baseCtx, func() { job.cancel(context.Cause(s.baseCtx)) })
	}

	// Durability before visibility: the accept record hits disk before
	// the job can run or be observed, so a crash at any later instant
	// recovers it.
	if err := s.jnl.append(journalRec{Rec: recAccept, Job: job.ID, JobSeq: seq, Spec: &job.Spec}); err != nil {
		s.releaseAdmission(job)
		return nil, codeErr(CodeAcceptFault, err, "journal accept: %v", err)
	}
	if s.testHookAcceptAppend != nil {
		s.testHookAcceptAppend()
	}

	s.mu.Lock()
	s.pendingReserved--
	if s.draining || s.stopping {
		// Drain won the race while the lock was dropped for the fsync:
		// the workers may already be gone, so enqueueing now would strand
		// the job forever (RunSync would hang on job.done). Roll back and
		// shed; the cancel record resolves the journalled accept so
		// recovery never re-queues it.
		s.counters.shed++
		s.memInUse -= charge
		s.mu.Unlock()
		job.cancel(codeErr(CodeDraining, nil, "server is draining"))
		if job.stopAfter != nil {
			job.stopAfter()
		}
		s.jnl.append(journalRec{ //nolint:errcheck // best-effort: a lost cancel record only re-runs a deterministic job on recovery
			Rec: recCancel, Job: job.ID, Code: CodeDraining, Msg: "shed: server began draining during accept",
		})
		return nil, codeErr(CodeDraining, nil, "server is draining")
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.pending = append(s.pending, job)
	s.counters.accepted++
	s.mu.Unlock()
	s.cond.Broadcast()
	return job, nil
}

// releaseAdmission rolls back a submission that passed admission but was
// never enqueued: the memory charge, the queue reservation, and the job's
// contexts (which would otherwise accumulate as live children of baseCtx
// under sustained journal faults).
func (s *Server) releaseAdmission(job *Job) {
	s.mu.Lock()
	s.memInUse -= job.charge
	s.pendingReserved--
	s.counters.shed++
	s.mu.Unlock()
	job.cancel(codeErr(CodeAcceptFault, nil, "admission rolled back"))
	if job.stopAfter != nil {
		job.stopAfter()
	}
}

// maxAsmBytes caps a tenant-supplied assembly listing. The bound keeps a
// journalled accept record — the spec is embedded verbatim, and JSON
// escaping can expand control characters up to 6x — safely below
// readJournal's maxJournalLine, so an accepted job can always be
// recovered after a crash.
const maxAsmBytes = 512 << 10

// validateSpec front-loads the spec errors that don't require assembling
// the program: program selection, size bounds, policy names, option
// ranges, fault sites.
func validateSpec(spec *JobSpec) error {
	if spec.Workload == "" && spec.Asm == "" {
		return codeErr(CodeBadRequest, nil, "spec selects no program (set workload or asm)")
	}
	if spec.Workload != "" && spec.Asm != "" {
		return codeErr(CodeBadRequest, nil, "workload and asm are mutually exclusive")
	}
	if len(spec.Asm) > maxAsmBytes {
		return codeErr(CodeBadRequest, nil, "asm is %d bytes; the limit is %d", len(spec.Asm), maxAsmBytes)
	}
	if _, err := spec.buildConfig(); err != nil {
		return err
	}
	if spec.Workload != "" {
		if _, ok := workloads.Get(spec.Workload); !ok {
			return codeErr(CodeUnknownWorkload, nil, "unknown workload %q", spec.Workload)
		}
	}
	return nil
}

// Job returns a job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job's view in acceptance order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.snapshotView()
	}
	return views
}

// Cancel requests cancellation of a queued or running job. A running job
// stops at its next episode boundary; a queued job is discharged when a
// worker picks it up. Finished jobs return CodeConflict.
func (s *Server) Cancel(id string) error {
	j, ok := s.Job(id)
	if !ok {
		return codeErr(CodeNotFound, nil, "no job %q", id)
	}
	j.mu.Lock()
	done := terminal(j.state)
	j.mu.Unlock()
	if done {
		return codeErr(CodeConflict, nil, "job %s already %s", id, j.State())
	}
	j.cancel(codeErr(CodeCancelled, context.Canceled, "cancelled by client"))
	return nil
}

// RunSync submits a job tied to ctx and waits for it: the synchronous
// API. If ctx ends (client disconnect, request deadline) the job is
// cancelled at its next episode boundary and RunSync returns the
// cancelled view.
func (s *Server) RunSync(ctx context.Context, spec JobSpec) (JobView, error) {
	job, err := s.submit(spec, ctx)
	if err != nil {
		return JobView{}, err
	}
	// Wait for the terminal state, not for ctx: the worker observes ctx's
	// cancellation itself and always closes job.done with a typed
	// outcome, so this never hangs past cancellation + one episode.
	<-job.done
	return job.snapshotView(), nil
}

// worker is the pool loop: pop, run, release, repeat.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.stopping {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		job := s.pending[0]
		s.pending = s.pending[1:]
		s.running++
		s.mu.Unlock()

		s.runJob(job)

		s.mu.Lock()
		s.running--
		s.mu.Unlock()
		s.cond.Broadcast()
	}
}

// runJob executes one job to a terminal state: build, run once under its
// deadline, journal every transition. A failed run ends on its typed code;
// resubmission belongs with the client.
func (s *Server) runJob(job *Job) {
	if err := job.runCtx.Err(); err != nil {
		// Cancelled while queued.
		s.finish(job, StateCancelled, cancelCode(job.runCtx), "cancelled while queued", nil)
		return
	}
	prog, err := job.Spec.buildProgram()
	if err != nil {
		s.finish(job, StateFailed, Classify(err), err.Error(), nil)
		return
	}
	cfg, err := job.Spec.buildConfig()
	if err != nil {
		s.finish(job, StateFailed, Classify(err), err.Error(), nil)
		return
	}
	if job.Spec.shared() {
		cfg.Shared = s.shared
	}

	job.mu.Lock()
	job.state = StateRunning
	job.mu.Unlock()
	// Transition records after accept are best-effort: if one is lost to
	// a crash, recovery simply re-runs the job — results are
	// deterministic, so a duplicate run is harmless.
	s.jnl.append(journalRec{Rec: recStart, Job: job.ID}) //nolint:errcheck // see above

	ctx, cancel := context.WithTimeout(job.runCtx, job.Spec.timeout(s.opts.DefaultTimeout))
	res, runErr := s.simulate(ctx, prog, cfg)
	cancel()

	code := Classify(runErr)
	switch {
	case runErr == nil:
		job.mu.Lock()
		job.result = res
		job.digest = resultDigest(res)
		digest := job.digest
		job.mu.Unlock()
		s.jnl.append(journalRec{Rec: recDone, Job: job.ID, Digest: digest}) //nolint:errcheck // see above
		s.finish(job, StateDone, "", "", res)
	case code == CodeCancelled || code == CodeDeadline:
		if code == CodeCancelled {
			code = cancelCode(job.runCtx)
		}
		s.jnl.append(journalRec{Rec: recCancel, Job: job.ID, Code: code, Msg: runErr.Error()}) //nolint:errcheck // see above
		s.finish(job, StateCancelled, code, runErr.Error(), nil)
	default:
		s.jnl.append(journalRec{Rec: recFail, Job: job.ID, Code: code, Msg: runErr.Error()}) //nolint:errcheck // see above
		s.finish(job, StateFailed, code, runErr.Error(), nil)
	}
}

// cancelCode distinguishes deadline from client cancellation by the
// context cause.
func cancelCode(ctx context.Context) Code {
	cause := context.Cause(ctx)
	if code := Classify(cause); code == CodeDeadline {
		return CodeDeadline
	}
	return CodeCancelled
}

// simulate runs the job once with per-worker panic isolation: a panic that
// escapes the core (which converts only its own typed panics) fails this
// job with CodeInternal instead of taking the process — and with it every
// other tenant — down.
func (s *Server) simulate(ctx context.Context, prog *program.Program, cfg core.Config) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, codeErr(CodeInternal, nil, "worker panic: %v", r)
		}
	}()
	return s.runSim(ctx, prog, cfg)
}

// finish moves the job to its terminal state, releases its memory charge
// and updates the counters, all before done closes, so a waiter's Stats
// already reflect the finished job.
func (s *Server) finish(job *Job, st State, code Code, msg string, res *core.Result) {
	job.mu.Lock()
	job.state = st
	job.code = code
	job.msg = msg
	if res != nil {
		job.result = res
	}
	job.mu.Unlock()
	job.cancel(nil) // release the context regardless of outcome
	if job.stopAfter != nil {
		job.stopAfter()
	}

	s.mu.Lock()
	s.memInUse -= job.charge
	switch st {
	case StateDone:
		s.counters.completed++
	case StateFailed:
		s.counters.failed++
	case StateCancelled:
		s.counters.cancelled++
	}
	s.mu.Unlock()
	close(job.done)
}

// Drain stops admission and waits for the queue and running jobs to
// finish, bounded by ctx; when ctx ends first, remaining jobs are
// hard-cancelled (they journal cancel records) and waited for. The
// journal is closed either way.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cond.Broadcast()

	idle := make(chan struct{})
	go func() {
		s.mu.Lock()
		for len(s.pending) > 0 || s.running > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(idle)
	}()
	var drainErr error
	select {
	case <-idle:
	case <-ctx.Done():
		drainErr = ctx.Err()
		s.baseCancel(codeErr(CodeCancelled, context.Canceled, "server shutdown"))
		<-idle
	}

	s.mu.Lock()
	s.stopping = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
	if err := s.jnl.close(); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}

// Close drains gracefully within DrainTimeout, then hard-cancels.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
	defer cancel()
	return s.Drain(ctx)
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Accepted:  s.counters.accepted,
		Completed: s.counters.completed,
		Failed:    s.counters.failed,
		Cancelled: s.counters.cancelled,
		Recovered: s.counters.recovered,
		Shed:      s.counters.shed,
		Queued:    len(s.pending),
		Running:   s.running,
		Draining:  s.draining,
		MemInUse:  s.memInUse,
		MemBudget: s.opts.MemBudget,
	}
	s.mu.Unlock()
	ja, jt := s.jnl.stats()
	st.JournalAppends, st.JournalTorn = ja, jt
	sh := s.shared.Stats()
	st.Shared = &sh
	return st
}

// SharedCache exposes the server's shared p-action cache for embedding
// callers like fsbench.
func (s *Server) SharedCache() *memo.SharedCache { return s.shared }

// ProgressInfo is the debugsrv progress hook: live queue/pool counters.
func (s *Server) ProgressInfo() map[string]string {
	st := s.Stats()
	m := map[string]string{
		"jobs accepted": fmt.Sprint(st.Accepted),
		"jobs done":     fmt.Sprint(st.Completed),
		"queued":        fmt.Sprint(st.Queued),
		"running":       fmt.Sprint(st.Running),
	}
	if st.Draining {
		m["draining"] = "true"
	}
	return m
}
