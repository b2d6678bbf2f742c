package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"fastsim/internal/core"
	"fastsim/internal/memo"
	"fastsim/internal/program"
	"fastsim/internal/snapshot"
	"fastsim/internal/workloads"
)

// simCall is one simulation request of a simulation workload, with the
// references its every result is checked against.
type simCall struct {
	key  string
	prog *program.Program
	cfg  core.Config
	arch arch         // the emulator's architectural result
	ref  *core.Result // an unbounded cold FastSim run of the same program

	// Warm-started calls load image (strictly) and subtract the imported
	// statistics base from their memo counters.
	image string
	fp    uint64
	img   *snapshot.Image
	base  *memo.Stats
}

// simWorkload runs rounds of core.Run calls in one goroutine: each round
// runs every call once in a seeded order, then the next oracle in a
// seeded rotation.
type simWorkload struct {
	calls   []*simCall
	oracles []*simCall
	rng     *rand.Rand
	rounds  int
}

// build assembles a registered workload at scale, as a span of setup.
func build(ph *phase, name string, scale float64) (*program.Program, error) {
	w, ok := workloads.Get(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %s", name)
	}
	start := time.Now()
	p, err := w.Build(scale)
	ph.span("workloads.Build", name, start, time.Since(start))
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", name, err)
	}
	return p, nil
}

// reference runs prog under an unbounded cold FastSim (saving its p-action
// cache to save, when set) and checks it against the emulator.
func reference(ph *phase, key string, prog *program.Program, a arch, save string) (*core.Result, error) {
	cfg := core.DefaultConfig()
	cfg.SnapshotSave = save
	start := time.Now()
	ref, err := core.Run(prog, cfg)
	ph.span("core.Run", key+"/reference", start, time.Since(start))
	if err != nil {
		return nil, fmt.Errorf("reference run of %s: %w", key, err)
	}
	if err := a.check(ref.Insts, ref.Checksum, ref.ExitCode); err != nil {
		return nil, fmt.Errorf("reference run of %s: %w", key, err)
	}
	return ref, nil
}

// replayWarmPrograms span the replay layer's range: 099.go has many
// configurations with short chains, 107.mgrid 1.4M-action chains.
var replayWarmPrograms = []string{"099.go", "107.mgrid", "126.gcc", "132.ijpeg"}

// oracleScale sizes replay-warm's SlowSim oracle so that it stays a small
// share of a round.
const oracleScale = 1.0 / 16

// setupReplayWarm saves a p-action snapshot of each program from its
// reference run; every timed call warm-starts from it.
func setupReplayWarm(ph *phase, seed int64, dir string) (workload, error) {
	w := &simWorkload{rng: rand.New(rand.NewSource(seed))}
	for _, name := range replayWarmPrograms {
		prog, err := build(ph, name, 1)
		if err != nil {
			return nil, err
		}
		a, err := emulate(prog)
		if err != nil {
			return nil, err
		}
		c := &simCall{key: name + "/warm", prog: prog, arch: a, image: filepath.Join(dir, name+".fsnap")}
		if c.ref, err = reference(ph, name, prog, a, c.image); err != nil {
			return nil, err
		}
		c.cfg = core.DefaultConfig()
		c.cfg.SnapshotLoad = c.image
		c.cfg.SnapshotStrict = true
		c.fp = core.Fingerprint(prog, &c.cfg)
		start := time.Now()
		c.img, err = snapshot.Load(c.image, c.fp)
		ph.span("snapshot.Load", c.key, start, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("load snapshot of %s: %w", name, err)
		}
		c.base = &c.img.Graph.Stats
		w.calls = append(w.calls, c)

		small, err := build(ph, name, oracleScale)
		if err != nil {
			return nil, err
		}
		sa, err := emulate(small)
		if err != nil {
			return nil, err
		}
		o := &simCall{key: name + "/slowsim-oracle", prog: small, arch: sa, cfg: core.DefaultConfig()}
		o.cfg.Memoize = false
		if o.ref, err = reference(ph, o.key, small, sa, ""); err != nil {
			return nil, err
		}
		w.oracles = append(w.oracles, o)
	}
	w.rng.Shuffle(len(w.oracles), func(i, j int) { w.oracles[i], w.oracles[j] = w.oracles[j], w.oracles[i] })
	return w, nil
}

// setupRecordBounded builds 099.go under two bounded policies, whose
// runs keep re-recording, and SlowSim on 130.li; each is checked against
// the other engine or policy: an unbounded cold FastSim reference.
func setupRecordBounded(ph *phase, seed int64, _ string) (workload, error) {
	w := &simWorkload{rng: rand.New(rand.NewSource(seed))}
	progs := map[string]*simCall{}
	for _, name := range []string{"099.go", "130.li"} {
		prog, err := build(ph, name, 1)
		if err != nil {
			return nil, err
		}
		a, err := emulate(prog)
		if err != nil {
			return nil, err
		}
		ref, err := reference(ph, name, prog, a, "")
		if err != nil {
			return nil, err
		}
		progs[name] = &simCall{prog: prog, arch: a, ref: ref}
	}
	variant := func(name, key string, edit func(*core.Config)) {
		c := *progs[name]
		c.key = key
		c.cfg = core.DefaultConfig()
		edit(&c.cfg)
		w.calls = append(w.calls, &c)
	}
	variant("099.go", "099.go/flush-128KiB", func(cfg *core.Config) {
		cfg.Memo.Policy, cfg.Memo.Limit = memo.PolicyFlush, 128<<10
	})
	variant("099.go", "099.go/gengc-1MiB", func(cfg *core.Config) {
		cfg.Memo.Policy, cfg.Memo.Limit = memo.PolicyGenGC, 1<<20
	})
	variant("130.li", "130.li/slowsim", func(cfg *core.Config) { cfg.Memoize = false })
	return w, nil
}

// run executes rounds, starting calls until the deadline has passed.
// Untraced rounds end with the next SlowSim oracle of the rotation; traced
// rounds leave the oracles to afterTrace, so the profile holds only the
// workload's own calls.
func (w *simWorkload) run(ph *phase, deadline time.Time) {
	for ; ; w.rounds++ {
		round := w.rng.Perm(len(w.calls))
		if len(w.oracles) > 0 && !ph.traced {
			round = append(round, -1)
		}
		for _, i := range round {
			if !time.Now().Before(deadline) {
				return
			}
			if i < 0 {
				w.exec(ph, w.oracles[w.rounds%len(w.oracles)], true)
			} else {
				w.exec(ph, w.calls[i], true)
			}
		}
	}
}

// exec runs one call and checks it; work says whether its counters join
// the phase's per-layer units.
func (w *simWorkload) exec(ph *phase, c *simCall, work bool) {
	cpu := cpuTime()
	start := time.Now()
	res, err := core.Run(c.prog, c.cfg)
	wall := time.Since(start)
	cpu = cpuTime() - cpu
	ph.span("core.Run", c.key, start, wall)
	cl := call{key: c.key, memoize: c.cfg.Memoize, wall: wall, cpu: cpu}
	if err == nil {
		cl.insts = res.Insts
		err = c.check(res)
	}
	if err != nil {
		ph.record(cl, nil, err)
		return
	}
	if !work {
		ph.record(cl, nil, nil)
		return
	}
	cnt := countsOf(res, c.base)
	if ph.traced && c.img != nil {
		ph.mu.Lock()
		ph.warmNs[c.key] = append(ph.warmNs[c.key], wall.Nanoseconds())
		ph.replayActions += cnt.actions
		ph.mu.Unlock()
	}
	ph.record(cl, &cnt, nil)
}

// snapshotReps is how often each image is loaded and encoded on its own.
const snapshotReps = 5

// afterTrace checks each oracle once, and times snapshot.Load and
// snapshot.Encode on each image. It runs after profiling stops.
func (w *simWorkload) afterTrace(ph *phase) {
	for _, o := range w.oracles {
		w.exec(ph, o, false)
	}
	for _, c := range w.calls {
		if c.img == nil {
			continue
		}
		for i := 0; i < snapshotReps; i++ {
			start := time.Now()
			_, err := snapshot.Load(c.image, c.fp)
			load := time.Since(start)
			ph.span("snapshot.Load", c.key, start, load)
			if err != nil {
				ph.record(call{key: c.key + "/load", memoize: true}, nil, fmt.Errorf("snapshot.Load: %w", err))
				continue
			}
			start = time.Now()
			data := snapshot.Encode(c.img)
			enc := time.Since(start)
			ph.span("snapshot.Encode", c.key, start, enc)
			ph.loadNs[c.key] = append(ph.loadNs[c.key], load.Nanoseconds())
			ph.encodeNs[c.key] = append(ph.encodeNs[c.key], enc.Nanoseconds())
			ph.imageBytes[c.key] = len(data)
		}
	}
}

// check compares a timed result with the emulator and the reference run.
func (c *simCall) check(r *core.Result) error {
	if err := c.arch.check(r.Insts, r.Checksum, r.ExitCode); err != nil {
		return err
	}
	if c.image != "" && !r.Snapshot.Loaded {
		return fmt.Errorf("warm start did not load %s", c.image)
	}
	if !sameSimulation(r, c.ref) {
		return fmt.Errorf("statistics differ from the unbounded cold FastSim reference (cycles %d vs %d)", r.Cycles, c.ref.Cycles)
	}
	return nil
}

func (w *simWorkload) close() error { return nil }
