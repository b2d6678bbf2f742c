package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"fastsim/internal/core"
	"fastsim/internal/memo"
	"fastsim/internal/server"
)

// serviceSpec is one fssrv request of the service mix.
type serviceSpec struct {
	key    string
	spec   server.JobSpec
	weight int // relative frequency in the seeded sequence

	arch   arch
	ref    *core.Result // a direct core.Run of the same spec
	digest string       // JobView.Digest of the warm-up job
}

func boolp(b bool) *bool { return &b }

// serviceSpecs are scale-0.25 jobs over six programs: five FastSim specs,
// one of them under a bounded policy, and a rarer SlowSim spec.
func serviceSpecs() []*serviceSpec {
	fast := func(name string) *serviceSpec {
		return &serviceSpec{key: name, spec: server.JobSpec{Workload: name, Scale: 0.25}, weight: 3}
	}
	bounded := fast("147.vortex")
	bounded.key += "/gengc-256KiB"
	bounded.spec.Policy, bounded.spec.Limit = "gengc", 256<<10
	slow := &serviceSpec{key: "130.li/slowsim", spec: server.JobSpec{Workload: "130.li", Scale: 0.25, Memoize: boolp(false)}, weight: 1}
	return []*serviceSpec{fast("099.go"), fast("124.m88ksim"), fast("129.compress"), fast("134.perl"), bounded, slow}
}

// serviceClients is the closed loop's client count. One job in flight
// leaves the second CPU of a two-CPU host to the GC, HTTP and the journal,
// and makes the process's CPU time over a job that job's own.
const serviceClients = 1

// service is an in-process fssrv with a journal and the shared p-action
// cache, served over loopback HTTP.
type service struct {
	specs  []*serviceSpec
	srv    *server.Server
	http   *http.Server
	url    string
	client *http.Client
	served chan error

	mu   sync.Mutex
	rng  *rand.Rand
	deck []int // spec indices, each repeated by its weight
	left []int // the rest of the current shuffled deck
}

func setupService(ph *phase, seed int64, dir string) (workload, error) {
	s := &service{specs: serviceSpecs(), rng: rand.New(rand.NewSource(seed))}
	for i, sp := range s.specs {
		prog, err := build(ph, sp.spec.Workload, sp.spec.Scale)
		if err != nil {
			return nil, err
		}
		if sp.arch, err = emulate(prog); err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Memoize = sp.spec.Memoize == nil || *sp.spec.Memoize
		if sp.spec.Policy != "" {
			if cfg.Memo.Policy, err = memo.ParsePolicy(sp.spec.Policy); err != nil {
				return nil, err
			}
			cfg.Memo.Limit = sp.spec.Limit
		}
		start := time.Now()
		sp.ref, err = core.Run(prog, cfg)
		ph.span("core.Run", sp.key+"/reference", start, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", sp.key, err)
		}
		if err := sp.arch.check(sp.ref.Insts, sp.ref.Checksum, sp.ref.ExitCode); err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", sp.key, err)
		}
		for j := 0; j < sp.weight; j++ {
			s.deck = append(s.deck, i)
		}
	}

	start := time.Now()
	srv, err := server.New(server.Options{Workers: 2, JournalPath: filepath.Join(dir, "journal.jsonl")})
	ph.span("server.New", "", start, time.Since(start))
	if err != nil {
		return nil, err
	}
	s.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String() + "/v1/run"
	s.http = &http.Server{Handler: srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.http.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}

	// Warm-up: one job per spec fills the shared cache, as a long-running
	// server's would be, and fixes each spec's digest.
	for _, sp := range s.specs {
		view, _, err := s.post(sp)
		if err == nil {
			err = sp.check(view)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up job %s: %w", sp.key, err)
		}
		sp.digest = view.Digest
	}
	return s, nil
}

// next draws the next spec of the seeded sequence: successive seeded
// shuffles of the deck, so every seed runs the same mix in its own order.
func (s *service) next() *serviceSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.left) == 0 {
		s.left = append(s.left, s.deck...)
		s.rng.Shuffle(len(s.left), func(i, j int) { s.left[i], s.left[j] = s.left[j], s.left[i] })
	}
	i := s.left[0]
	s.left = s.left[1:]
	return s.specs[i]
}

// post runs one job through POST /v1/run.
func (s *service) post(sp *serviceSpec) (server.JobView, time.Duration, error) {
	var view server.JobView
	body, err := json.Marshal(sp.spec)
	if err != nil {
		return view, 0, err
	}
	start := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return view, time.Since(start), err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	if err != nil {
		return view, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return view, lat, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return view, lat, json.Unmarshal(data, &view)
}

// check compares a job's view with the spec's direct core.Run and the
// emulator; after warm-up every job of a spec must carry the same digest.
func (sp *serviceSpec) check(v server.JobView) error {
	if v.State != server.StateDone || v.Result == nil {
		return fmt.Errorf("job ended %s (%s: %s)", v.State, v.Code, v.Msg)
	}
	r := v.Result
	if err := sp.arch.check(r.Insts, r.Checksum, r.ExitCode); err != nil {
		return err
	}
	if r.Cycles != sp.ref.Cycles || r.Insts != sp.ref.Insts || r.Checksum != sp.ref.Checksum {
		return fmt.Errorf("result (cycles %d, insts %d) differs from a direct core.Run (%d, %d)", r.Cycles, r.Insts, sp.ref.Cycles, sp.ref.Insts)
	}
	if sp.digest != "" && v.Digest != sp.digest {
		return fmt.Errorf("digest %s differs from the spec's first job's %s", v.Digest, sp.digest)
	}
	return nil
}

// run drives the closed loop: each client sends its next job once the
// previous one has completed. Untraced jobs go over HTTP; traced jobs go
// through Server.Submit and Job.Wait, so those calls can be timed apart.
func (s *service) run(ph *phase, deadline time.Time) {
	before := s.srv.Stats()
	defer func() { ph.server = statsDelta(s.srv.Stats(), before) }()
	var wg sync.WaitGroup
	for i := 0; i < serviceClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				sp := s.next()
				if ph.traced {
					s.direct(ph, sp)
				} else {
					cpu := cpuTime()
					view, lat, err := s.post(sp)
					s.record(ph, sp, view, lat, cpuTime()-cpu, err)
				}
			}
		}()
	}
	wg.Wait()
}

func (s *service) direct(ph *phase, sp *serviceSpec) {
	cpu := cpuTime()
	start := time.Now()
	job, err := s.srv.Submit(sp.spec)
	submit := time.Since(start)
	ph.span("server.Submit", sp.key, start, submit)
	if err != nil {
		s.record(ph, sp, server.JobView{}, submit, cpuTime()-cpu, err)
		return
	}
	waitStart := time.Now()
	view, err := job.Wait(context.Background())
	wait := time.Since(waitStart)
	ph.span("Job.Wait", sp.key, waitStart, wait)
	if err == nil {
		ph.mu.Lock()
		ph.submitMs = append(ph.submitMs, ms(submit))
		ph.waitMs = append(ph.waitMs, ms(wait))
		ph.submitWaitMs = append(ph.submitWaitMs, ms(submit+wait))
		ph.mu.Unlock()
	}
	s.record(ph, sp, view, submit+wait, cpuTime()-cpu, err)
}

func (s *service) record(ph *phase, sp *serviceSpec, view server.JobView, lat, cpu time.Duration, err error) {
	if err == nil {
		err = sp.check(view)
	}
	c := call{key: sp.key, memoize: sp.spec.Memoize == nil || *sp.spec.Memoize, wall: lat, cpu: cpu}
	if err != nil {
		ph.record(c, nil, err)
		return
	}
	c.insts = view.Result.Insts
	// A job's Result stays inside fssrv; its deterministic counters equal
	// the direct reference run's (checked above), but its memo counters
	// and detailed cycles depend on how warm the shared cache was and are
	// not observable.
	cnt := countsOf(sp.ref, nil).withoutMemo()
	ph.record(c, &cnt, nil)
}

// statsDelta returns the counters accrued between two Server.Stats.
func statsDelta(a, b server.Stats) server.Stats {
	d := server.Stats{
		Completed:      a.Completed - b.Completed,
		Retries:        a.Retries - b.Retries,
		Shed:           a.Shed - b.Shed,
		JournalAppends: a.JournalAppends - b.JournalAppends,
	}
	if a.Shared != nil && b.Shared != nil {
		d.Shared = &memo.SharedStats{Acquires: a.Shared.Acquires - b.Shared.Acquires, Warm: a.Shared.Warm - b.Shared.Warm}
	}
	return d
}

func (s *service) afterTrace(*phase) {}

func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
