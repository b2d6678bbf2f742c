package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fastsim/internal/core"
	"fastsim/internal/memo"
)

// TestConcurrentTenantsBitIdentical is the acceptance gate for the shared
// cache: 8 tenants x 3 workloads x 2 policies running concurrently on a
// real engine must produce results byte-identical to sequential
// single-tenant core.Run, and warming must be observable (every
// second-wave tenant replays chains some other tenant recorded).
func TestConcurrentTenantsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second concurrency acceptance test")
	}
	type tenantSpec struct {
		workload string
		scale    float64
		policy   string
	}
	var specs []tenantSpec
	for _, wl := range []struct {
		name  string
		scale float64
	}{
		{"129.compress", 0.3},
		{"126.gcc", 0.3},
		{"124.m88ksim", 0.3},
	} {
		for _, pol := range []string{"unbounded", "gengc"} {
			specs = append(specs, tenantSpec{wl.name, wl.scale, pol})
		}
	}

	// Sequential single-tenant baselines: plain core.Run, no server, no
	// shared cache.
	baseline := make(map[tenantSpec]string)
	for _, sp := range specs {
		js := JobSpec{Workload: sp.workload, Scale: sp.scale, Policy: sp.policy}
		prog, err := js.buildProgram()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := js.buildConfig()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(prog, cfg)
		if err != nil {
			t.Fatalf("baseline %s/%s: %v", sp.workload, sp.policy, err)
		}
		baseline[sp] = resultDigest(res)
	}

	shared := memo.NewShared()
	s := newTestServer(t, Options{
		Workers: 8,
		Shared:  shared,
		runSim:  core.RunContext,
	})

	submit := func(sp tenantSpec) *Job {
		job, err := s.Submit(JobSpec{Workload: sp.workload, Scale: sp.scale, Policy: sp.policy})
		if err != nil {
			t.Fatalf("submit %s/%s: %v", sp.workload, sp.policy, err)
		}
		return job
	}

	// Wave 1: one publisher per spec, all concurrent. They race to record
	// and publish; each either publishes or warms off a faster peer —
	// either way the digest must match the sequential baseline.
	wave1 := make(map[tenantSpec]*Job)
	for _, sp := range specs {
		wave1[sp] = submit(sp)
	}
	for _, sp := range specs {
		view := mustWait(t, wave1[sp])
		if view.State != StateDone {
			t.Fatalf("wave1 %s/%s: %s %s %s", sp.workload, sp.policy, view.State, view.Code, view.Msg)
		}
		if view.Digest != baseline[sp] {
			t.Errorf("wave1 %s/%s digest %s != sequential %s", sp.workload, sp.policy, view.Digest, baseline[sp])
		}
	}

	// Wave 2: 7 more tenants per spec, all concurrent across specs and
	// policies. Every one must warm from the now-published epochs and
	// still be bit-identical.
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]string, 0)
	for _, sp := range specs {
		for tenant := 0; tenant < 7; tenant++ {
			wg.Add(1)
			go func(sp tenantSpec, tenant int) {
				defer wg.Done()
				job, err := s.Submit(JobSpec{Workload: sp.workload, Scale: sp.scale, Policy: sp.policy})
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Sprintf("wave2 submit %s/%s#%d: %v", sp.workload, sp.policy, tenant, err))
					mu.Unlock()
					return
				}
				view, err := job.Wait(context.Background())
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Sprintf("wave2 wait %s/%s#%d: %v", sp.workload, sp.policy, tenant, err))
					mu.Unlock()
					return
				}
				mu.Lock()
				defer mu.Unlock()
				if view.State != StateDone {
					errs = append(errs, fmt.Sprintf("wave2 %s/%s#%d: %s %s", sp.workload, sp.policy, tenant, view.State, view.Code))
					return
				}
				if view.Digest != baseline[sp] {
					errs = append(errs, fmt.Sprintf("wave2 %s/%s#%d digest %s != %s", sp.workload, sp.policy, tenant, view.Digest, baseline[sp]))
				}
				if view.Result == nil || !view.Result.Warmed {
					errs = append(errs, fmt.Sprintf("wave2 %s/%s#%d did not warm from the shared cache", sp.workload, sp.policy, tenant))
				}
			}(sp, tenant)
		}
	}
	wg.Wait()
	for _, e := range errs {
		t.Error(e)
	}

	st := s.Stats()
	if st.Completed != uint64(len(specs)*8) {
		t.Errorf("completed = %d, want %d", st.Completed, len(specs)*8)
	}
	if st.Shared == nil || st.Shared.Warm == 0 {
		t.Errorf("shared cache never warmed a tenant: %+v", st.Shared)
	}
	if st.Shared.Published == 0 {
		t.Errorf("nothing published to the shared cache: %+v", st.Shared)
	}
}
