// Command perfbench is FastSim's benchmark: it runs one named workload
// through the public entry points of the simulator's layers, checks every
// result against a reference, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer ledger) as the last line of its output.
//
//	perfbench -workload replay-warm -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads and what each metric should move.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark workload after its setup.
type workload interface {
	// run issues requests until the deadline has passed and waits for
	// the last one.
	run(ph *phase, deadline time.Time)
	// afterTrace times the layer entry points that the traced requests do
	// not call on their own; it runs once profiling has stopped.
	afterTrace(ph *phase)
	close() error
}

// setups builds each workload: its programs, references, snapshots and
// server. The whole call is timed as set-up.
var setups = map[string]func(ph *phase, seed int64, dir string) (workload, error){
	"replay-warm":    setupReplayWarm,
	"record-bounded": setupRecordBounded,
	"service":        setupService,
}

// setupReps is how often a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: replay-warm, record-bounded or service")
	seed := flag.Int64("seed", 1, "workload seed: picks program order and the service's job sequence")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: also run a traced, profiled phase and print the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for temporary files, the CPU profile and the spans")
	flag.Parse()
	setup, ok := setups[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload replay-warm|record-bounded|service -seed N -seconds S -trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	// One P: the measured call and the runtime's GC and scheduler share
	// one CPU, so a call's CPU time does not depend on whether a second
	// thread runs beside it on a sibling core. fssrv keeps its two workers;
	// the service loop has one job in flight.
	runtime.GOMAXPROCS(1)

	traced := *trace == 1
	setupPh := newPhase(traced)
	var w workload
	var setupS, setupWallS []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: close:", err)
				return 1
			}
			// Drop the previous set-up's heap before timing the next.
			runtime.GC()
		}
		dir := filepath.Join(tmp, strconv.Itoa(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		cpu, start := cpuTime(), time.Now()
		w, err = setup(setupPh, *seed, dir)
		setupS = append(setupS, (cpuTime() - cpu).Seconds())
		setupWallS = append(setupWallS, time.Since(start).Seconds())
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up of %s: %v\n", *name, err)
			return 1
		}
	}

	d := time.Duration(*seconds * float64(time.Second))
	plain, tr, m, err := measure(w, d, traced, *out, *name, setupPh.spans)
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !traced {
		m = endToEnd(plain, setupS)
	}

	attempted, failed := plain.attempted, plain.failed
	failures := plain.failures
	if traced {
		attempted += tr.attempted
		failed += tr.failed
		failures = append(failures, tr.failures...)
	}

	report := map[string]any{
		"workload":    *name,
		"seed":        *seed,
		"seconds":     *seconds,
		"trace":       *trace,
		"host":        host(),
		"setup_cpu_s": setupS,
		"wall":        wallFigures(plain, setupWallS),
		"steal_frac":  plain.stealFrac,
		"samples":     samples(plain, tr),
		"failed_frac": ratio(uint64(failed), uint64(attempted)),
		"failures":    failures,
		"accuracy": "the simulated machine is not validated against real hardware; its modelled caches start empty on every run. " +
			"The only accuracy figure is FastSim-vs-SlowSim (and policy-vs-policy) error, checked on every timed call; it must be 0.",
	}
	if traced {
		report["trace.overhead_frac"] = m["trace.overhead_frac"].Value
	}
	emit(map[string]any{"report": report})
	emit(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   m,
	})
	return 0
}

// measure runs the untraced loop for d and, when traced, a profiled loop
// for as long again, returning both phases and the per-layer ledger.
// A traced run splits d in half between the two.
func measure(w workload, d time.Duration, traced bool, out, name string, setupSpans []span) (plain, tr *phase, ledger map[string]metric, err error) {
	if traced {
		d /= 2
	}
	plain = newPhase(false)
	runPhase(w, plain, d)
	if !traced {
		return plain, nil, nil, nil
	}
	tr = newPhase(true)
	var buf bytes.Buffer
	before := readRuntime()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, nil, err
	}
	runPhase(w, tr, d)
	pprof.StopCPUProfile()
	rt := readRuntime().sub(before)
	w.afterTrace(tr)
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, nil, nil, err
	}
	tr.prof = attribute(p)
	if err := writeTrace(out, name, buf.Bytes(), append(setupSpans, tr.spans...)); err != nil {
		return nil, nil, nil, err
	}
	return plain, tr, layerMetrics(plain, tr, rt), nil
}

// runPhase runs w for d and samples the process's resident set and the
// host's steal time meanwhile.
func runPhase(w workload, ph *phase, d time.Duration) {
	stop := make(chan struct{})
	peak := make(chan float64)
	go func() {
		hi := 0.0
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			hi = max(hi, rssMB("VmRSS:"))
			select {
			case <-stop:
				peak <- hi
				return
			case <-tick.C:
			}
		}
	}()
	st := readCPUStat()
	start := time.Now()
	w.run(ph, start.Add(d))
	ph.wall = time.Since(start)
	ph.stealFrac = stealFrac(st, readCPUStat())
	close(stop)
	ph.peakRSSMB = <-peak
}

// rssInterval is how often runPhase samples the resident set.
const rssInterval = 10 * time.Millisecond

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the metrics a user of the simulator sees, from the
// untraced phase. Times are the process's CPU time: on a shared host the
// wall clock also counts the time the hypervisor gives to other guests.
func endToEnd(ph *phase, setupS []float64) map[string]metric {
	return map[string]metric{
		"fastsim_kips":   {ph.kips(true, true), "kinst/cpu-s"},
		"slowsim_kips":   {ph.kips(false, true), "kinst/cpu-s"},
		"job_cpu_p50_ms": {capInf(ph.latency(0.5, true), ph), "ms"},
		"job_cpu_p90_ms": {capInf(ph.latency(0.9, true), ph), "ms"},
		"peak_rss_mb":    {ph.peakRSSMB, "MB"},
		"setup_s":        {median(setupS), "s"},
	}
}

// wallFigures are the end-to-end figures by the wall clock, which the
// report line carries for reference.
func wallFigures(ph *phase, setupS []float64) map[string]float64 {
	return map[string]float64{
		"fastsim_kips": ph.kips(true, false),
		"slowsim_kips": ph.kips(false, false),
		"job_p50_ms":   capInf(ph.latency(0.5, false), ph),
		"job_p90_ms":   capInf(ph.latency(0.9, false), ph),
		"jobs_per_s":   float64(ph.completed()) / ph.wall.Seconds(),
		"setup_s":      median(setupS),
	}
}

// capInf reports a percentile that falls on a failed request, which
// misses every limit, as the whole phase's duration.
func capInf(v float64, ph *phase) float64 {
	if math.IsInf(v, 1) {
		return ms(ph.wall)
	}
	return v
}

// layerMetrics computes the per-layer ledger from the traced phase; the
// untraced phase gives the tracing overhead and the HTTP share.
func layerMetrics(plain, tr *phase, rt runtimeDelta) map[string]metric {
	m := map[string]metric{}
	prof := tr.prof
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// One pass over the workload's distinct requests: these counts are
	// exact and repeat on every run.
	var pass counts
	for _, c := range tr.perKey {
		pass.add(c)
	}
	put("memo.actions_replayed", float64(pass.actions), "count")
	put("memo.episodes_record", float64(pass.epRecord), "count")
	put("memo.episodes_replay", float64(pass.epReplay), "count")
	put("memo.detailed_insts", float64(pass.detailedInsts), "count")
	put("memo.hit_ratio", ratio(pass.hits, pass.lookups), "ratio")
	put("memo.replay_inst_frac", ratio(pass.replayInsts, pass.fastInsts), "ratio")
	put("memo.flushes", float64(pass.flushes), "count")
	put("memo.collections", float64(pass.collections), "count")
	put("memo.peak_bytes", float64(pass.peakBytes), "bytes")
	put("direct.rollbacks", float64(pass.rollbacks), "count")
	put("cachesim.l1d_miss_ratio", ratio(pass.l1Misses, pass.l1Accesses), "ratio")
	put("bpred.mispredict_ratio", ratio(pass.mispreds, pass.preds), "ratio")

	// Replay cost per action: warm core.Run spans less the median
	// snapshot.Load of their image.
	var replayNs float64
	for key, runs := range tr.warmNs {
		load := medianNs(tr.loadNs[key])
		for _, ns := range runs {
			replayNs += float64(ns) - load
		}
	}
	put("memo.replay_ns_per_action", div(replayNs, float64(tr.replayActions)), "ns")

	// CPU shares from the profile, and CPU time per unit of each layer's
	// work over every call of the traced phase.
	for _, l := range layers {
		p, se := prof.share(l)
		put(l+".cpu_share", p, "ratio")
		put(l+".cpu_share_se", se, "ratio")
	}
	units := map[string]uint64{
		"memo":     tr.work.actions,
		"uarch":    tr.work.detailedCycles,
		"direct":   tr.work.directInsts,
		"cachesim": tr.work.cacheAccesses,
		"bpred":    tr.work.preds,
		"core":     tr.work.insts,
	}
	for l, u := range units {
		p, _ := prof.share(l)
		put(l+".ns_per_unit", div(p*float64(prof.cpuNs), float64(u)), "ns")
	}
	put("profile.samples", float64(prof.samples), "count")

	var loadMs, encMs float64
	var imgBytes int
	for key, b := range tr.imageBytes {
		loadMs += medianNs(tr.loadNs[key]) / 1e6
		encMs += medianNs(tr.encodeNs[key]) / 1e6
		imgBytes += b
	}
	put("snapshot.load_ms", loadMs, "ms")
	put("snapshot.encode_ms", encMs, "ms")
	put("snapshot.bytes", float64(imgBytes), "bytes")

	put("server.submit_ms", median(tr.submitMs), "ms")
	put("server.wait_ms", median(tr.waitMs), "ms")
	httpMs := 0.0
	if len(tr.submitWaitMs) > 0 {
		httpMs = quantile(plain.latencies(), 0.5) - median(tr.submitWaitMs)
	}
	put("server.http_ms", httpMs, "ms")
	sd := tr.server
	put("server.journal_appends_per_job", div(float64(sd.JournalAppends), float64(sd.Completed)), "count")
	var acquires, warm uint64
	if sd.Shared != nil {
		acquires, warm = sd.Shared.Acquires, sd.Shared.Warm
	}
	put("server.shared_warm_ratio", ratio(warm, acquires), "ratio")
	put("server.shed", float64(sd.Shed), "count")
	put("server.retries", float64(sd.Retries), "count")

	put("runtime.gc_cpu_share", div(rt.gcCPU, rt.busyCPU), "ratio")
	put("runtime.alloc_bytes_per_inst", div(rt.allocBytes, float64(tr.work.insts)), "bytes")

	base := plain.kips(true, true)
	put("trace.overhead_frac", div(tr.kips(true, true)-base, base), "ratio")
	return m
}

func medianNs(ns []int64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return median(xs)
}

// runtimeDelta is the Go runtime's own accounting over the traced phase.
type runtimeDelta struct {
	allocBytes, gcCPU, busyCPU float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{allocBytes: val(0), gcCPU: val(1), busyCPU: val(2) - val(3)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.busyCPU - b.busyCPU}
}

// rssMB reads one resident-set field of /proc/self/status, in MB.
func rssMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTime is the CPU time of the whole process, the Go runtime's GC and
// scheduler threads included. A kernel with paravirtual steal accounting
// leaves out the time the hypervisor ran other guests on its CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the first line of /proc/stat: every CPU's time, in ticks.
type cpuStat struct{ steal, total float64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var st cpuStat
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealFrac is the share of the host CPUs' time between a and b that the
// hypervisor gave to other guests.
func stealFrac(a, b cpuStat) float64 { return div(b.steal-a.steal, b.total-a.total) }

// host records what the numbers were measured on.
func host() map[string]any {
	h := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h["commit"] = s.Value
			case "vcs.modified":
				h["commit_modified"] = s.Value == "true"
			}
		}
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// samples states how many requests and profile samples each figure rests
// on, with each request's median latency.
func samples(plain, tr *phase) map[string]any {
	byRequest := func(ph *phase) map[string]any {
		out := map[string]any{}
		for key, calls := range ph.requests() {
			var wall, cpu []float64
			for _, c := range calls {
				wall = append(wall, ms(c.wall))
				cpu = append(cpu, ms(c.cpu))
			}
			out[key] = map[string]any{"n": len(calls), "median_ms": median(wall), "median_cpu_ms": median(cpu)}
		}
		return out
	}
	s := map[string]any{"untraced_jobs": len(plain.calls), "untraced_by_request": byRequest(plain)}
	if tr != nil {
		s["traced_jobs"] = len(tr.calls)
		s["traced_by_request"] = byRequest(tr)
		s["profile_samples"] = tr.prof.samples
		byLayer := map[string]int64{}
		for _, l := range layers {
			byLayer[l] = tr.prof.byLayer[l]
		}
		s["profile_samples_by_layer"] = byLayer
	}
	return s
}

// writeTrace saves the CPU profile and the spans for later inspection
// (go tool pprof, or any JSON reader).
func writeTrace(dir, name string, profile []byte, spans []span) error {
	if err := os.WriteFile(filepath.Join(dir, name+".pprof"), profile, 0o644); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+"-spans.json"), data, 0o644)
}

func emit(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}
