package fastsim

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildCmd compiles one of the repository's commands once per test run.
var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "fastsim-bin")
		if buildErr != nil {
			return
		}
		for _, c := range []string{"fastsim", "fsbench", "fsasm"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, c), "./cmd/"+c)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				t.Logf("build %s: %s", c, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Skipf("cannot build commands: %v", buildErr)
	}
	return buildDir
}

func runCLI(t *testing.T, name string, args ...string) string {
	t.Helper()
	bin := filepath.Join(binaries(t), name)
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLIFastsimWorkload(t *testing.T) {
	out := runCLI(t, "fastsim", "-workload", "130.li", "-scale", "0.05")
	for _, want := range []string{"cycles:", "memoization:", "checksum:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIFastsimEnginesAgree(t *testing.T) {
	fast := runCLI(t, "fastsim", "-workload", "129.compress", "-scale", "0.05")
	slow := runCLI(t, "fastsim", "-engine", "slowsim", "-workload", "129.compress", "-scale", "0.05")
	pick := func(out, prefix string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, prefix) {
				return l
			}
		}
		return ""
	}
	if c1, c2 := pick(fast, "cycles:"), pick(slow, "cycles:"); c1 == "" || c1 != c2 {
		t.Errorf("cycle lines differ:\n%s\n%s", c1, c2)
	}
}

func TestCLIFastsimList(t *testing.T) {
	out := runCLI(t, "fastsim", "-list")
	if strings.Count(out, "\n") != 18 {
		t.Errorf("want 18 workloads:\n%s", out)
	}
}

func TestCLIFastsimJSON(t *testing.T) {
	out := runCLI(t, "fastsim", "-workload", "130.li", "-scale", "0.02", "-json")
	if !strings.Contains(out, `"Cycles"`) || !strings.Contains(out, `"Memo"`) {
		t.Errorf("json output:\n%.400s", out)
	}
}

func TestCLIFsasmRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.s")
	fsx := filepath.Join(dir, "p.fsx")
	if err := os.WriteFile(src, []byte("main:\n\tli a0, 0\n\thalt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "fsasm", "-o", fsx, src)
	if !strings.Contains(out, "wrote") {
		t.Errorf("fsasm: %s", out)
	}
	out = runCLI(t, "fsasm", "-run", "-d", fsx)
	if !strings.Contains(out, "executed") || !strings.Contains(out, "halt") {
		t.Errorf("fsasm -run -d: %s", out)
	}
	out = runCLI(t, "fastsim", fsx)
	if !strings.Contains(out, "cycles:") {
		t.Errorf("fastsim on fsx: %s", out)
	}
}

// TestCLIFastsimObservability is the issue's acceptance scenario: a
// memoized run with -sample and -events produces valid, non-empty JSONL.
func TestCLIFastsimObservability(t *testing.T) {
	dir := t.TempDir()
	sampleF := filepath.Join(dir, "s.jsonl")
	eventsF := filepath.Join(dir, "e.jsonl")
	runCLI(t, "fastsim", "-workload", "099.go", "-scale", "0.05",
		"-sample", sampleF, "-interval", "1000", "-events", eventsF, "-progress")

	for _, f := range []struct{ path, field string }{
		{sampleF, `"cycle"`},
		{eventsF, `"type"`},
	} {
		b, err := os.ReadFile(f.path)
		if err != nil || len(b) == 0 {
			t.Fatalf("%s: %v (%d bytes)", f.path, err, len(b))
		}
		dec := json.NewDecoder(strings.NewReader(string(b)))
		lines := 0
		for dec.More() {
			var v map[string]any
			if err := dec.Decode(&v); err != nil {
				t.Fatalf("%s: line %d: %v", f.path, lines+1, err)
			}
			lines++
		}
		if lines == 0 || !strings.Contains(string(b), f.field) {
			t.Errorf("%s: %d JSONL lines, missing %s", f.path, lines, f.field)
		}
	}
}

// TestCLIFastsimMemoTrace: -trace works under the memoizing engine now,
// with per-cycle lines for detailed episodes and fast-forward markers.
func TestCLIFastsimMemoTrace(t *testing.T) {
	dir := t.TempDir()
	traceF := filepath.Join(dir, "t.trace")
	runCLI(t, "fastsim", "-workload", "130.li", "-scale", "0.02", "-trace", traceF)
	b, err := os.ReadFile(traceF)
	if err != nil || len(b) == 0 {
		t.Fatalf("trace file: %v (%d bytes)", err, len(b))
	}
	if !strings.Contains(string(b), "fast-forward") {
		t.Errorf("memoized trace missing fast-forward markers:\n%.400s", b)
	}
}

// TestCLIFastsimSnapshot is the issue's acceptance scenario for the
// persistent p-action cache: -memo-save writes a snapshot, -memo-load
// warm-starts from it with identical results, and a corrupted snapshot
// degrades to a cold start with a warning — exit status still zero.
func TestCLIFastsimSnapshot(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "c.fsnap")

	cold := runCLI(t, "fastsim", "-workload", "129.compress", "-scale", "0.05",
		"-memo-save", snap)
	if !strings.Contains(cold, "saved") || !strings.Contains(cold, "snapshot:") {
		t.Errorf("cold run did not report a save:\n%s", cold)
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot file: %v", err)
	}

	warm := runCLI(t, "fastsim", "-workload", "129.compress", "-scale", "0.05",
		"-memo-load", snap)
	if !strings.Contains(warm, "warm start") {
		t.Errorf("warm run did not report a load:\n%s", warm)
	}
	pick := func(out, prefix string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, prefix) {
				return l
			}
		}
		return ""
	}
	for _, prefix := range []string{"cycles:", "checksum:"} {
		if c1, c2 := pick(cold, prefix), pick(warm, prefix); c1 == "" || c1 != c2 {
			t.Errorf("warm run diverged on %q:\n%s\n%s", prefix, c1, c2)
		}
	}

	// Corrupt the snapshot: the run must still succeed (exit 0 via
	// runCLI), warn on stderr, and match the cold results.
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b[9] ^= 0x40
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}
	fallback := runCLI(t, "fastsim", "-workload", "129.compress", "-scale", "0.05",
		"-memo-load", snap)
	if !strings.Contains(fallback, "fastsim: warning:") {
		t.Errorf("corrupt snapshot produced no warning:\n%s", fallback)
	}
	if c1, c2 := pick(cold, "cycles:"), pick(fallback, "cycles:"); c1 == "" || c1 != c2 {
		t.Errorf("fallback run diverged:\n%s\n%s", c1, c2)
	}
}

func TestCLIFsbenchTable1(t *testing.T) {
	out := runCLI(t, "fsbench", "-table", "1")
	if !strings.Contains(out, "Decode 4 instructions") {
		t.Errorf("table 1:\n%s", out)
	}
}

func TestCLIFsbenchSmallTable(t *testing.T) {
	out := runCLI(t, "fsbench", "-table", "2", "-scale", "0.03",
		"-workloads", "130.li", "-q")
	if !strings.Contains(out, "130.li") || !strings.Contains(out, "exactness") {
		t.Errorf("table 2:\n%s", out)
	}
}

func TestCLIFastsimTraceAndDot(t *testing.T) {
	dir := t.TempDir()
	traceF := filepath.Join(dir, "t.trace")
	runCLI(t, "fastsim", "-engine", "slowsim", "-workload", "130.li",
		"-scale", "0.02", "-trace", traceF)
	b, err := os.ReadFile(traceF)
	if err != nil || len(b) == 0 {
		t.Errorf("trace file: %v (%d bytes)", err, len(b))
	}
	dotF := filepath.Join(dir, "g.dot")
	runCLI(t, "fastsim", "-workload", "130.li", "-scale", "0.02", "-dot", dotF)
	b, err = os.ReadFile(dotF)
	if err != nil || !strings.Contains(string(b), "digraph") {
		t.Errorf("dot file: %v", err)
	}
}

// TestCLIFastsimSinkWriteFailure: an observability output that cannot be
// written (a full disk) fails the run with a non-zero exit, never a
// silently truncated file.
func TestCLIFastsimSinkWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	bin := filepath.Join(binaries(t), "fastsim")
	for _, args := range [][]string{
		{"-events", "/dev/full"},
		{"-span-trace", "/dev/full"},
		{"-trace", "/dev/full"},
		{"-trace", "/dev/full", "-engine", "slowsim"},
	} {
		name := strings.Join(args, " ")
		out, err := exec.Command(bin, append([]string{"-workload", "129.compress", "-scale", "0.1"}, args...)...).CombinedOutput()
		if err == nil {
			t.Errorf("%s: exit 0, want a write failure\n%s", name, out)
			continue
		}
		if !strings.Contains(string(out), "no space left on device") {
			t.Errorf("%s: error does not name the write failure:\n%s", name, out)
		}
	}
}
