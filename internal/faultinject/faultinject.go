// Package faultinject provides deterministic, seed-addressed fault points
// for the simulator's robustness machinery and its chaos tests.
//
// A fault point ("site") is a named place in the code that consults an
// Injector before doing real work: the p-action arena's allocator, the
// snapshot file reader and writer, the graph importer's payload words, and
// the simulation server's job-journal appends and admission point.
// Whether a given occurrence of a site fires is a pure function of the
// injector's seed, the site name and the occurrence number — never of wall
// clock or global randomness — so an injected failure reproduces exactly
// under `go test -race`, in CI, and across worker counts. The package is in
// fsvet's deterministic set for the same reason the memo engine is: a chaos
// run must be replayable bit-for-bit from its seed.
//
// A nil *Injector is fully inert and costs one pointer check per site, the
// same contract as obs.Observer; production paths pass nil.
package faultinject

import (
	"errors"
	"fmt"
	"syscall"
)

// Site names one fault point. Sites are compiled into the code they arm;
// the constants below are the complete set.
type Site string

const (
	// SiteMemoAlloc fails a p-action node allocation by panicking with a
	// Failure, which the memo engine's episode-boundary isolation converts
	// into a typed ErrEngineFault.
	SiteMemoAlloc Site = "memo.alloc"
	// SiteChainFlip flips one bit in an imported p-action's payload,
	// modelling in-memory corruption that bypasses the snapshot checksums.
	SiteChainFlip Site = "memo.chain_flip"
	// SiteSnapshotRead injects a transient (EINTR-class) error into a
	// snapshot read attempt; bounded retry should absorb it.
	SiteSnapshotRead Site = "snapshot.read"
	// SiteSnapshotWrite injects a transient error into a snapshot write
	// attempt.
	SiteSnapshotWrite Site = "snapshot.write"
	// SiteSnapshotTrunc truncates the snapshot bytes after a successful
	// read, so decoding fails with ErrCorrupt (a non-transient, typed
	// rejection).
	SiteSnapshotTrunc Site = "snapshot.truncate"
	// SiteJournalWrite injects a transient (EINTR-class) error into one
	// append to the simulation server's job journal; the journal's bounded
	// deterministic-backoff retry should absorb it, and an exhausted retry
	// surfaces as a typed journal error — never a silently dropped record.
	SiteJournalWrite Site = "server.journal.write"
	// SiteServerAccept fails one job admission at the simulation server's
	// accept point with a transient typed rejection (HTTP 503 +
	// Retry-After); the client-visible contract is "try again", never a
	// half-admitted job.
	SiteServerAccept Site = "server.accept"
)

// Sites returns every fault point in a fixed order (for reports).
func Sites() []Site {
	return []Site{
		SiteMemoAlloc, SiteChainFlip,
		SiteSnapshotRead, SiteSnapshotWrite, SiteSnapshotTrunc,
		SiteJournalWrite, SiteServerAccept,
	}
}

// Fault arms one site. Exactly one of Nth and Rate selects the firing rule:
// Nth > 0 fires on that occurrence alone (1-based); otherwise Rate is the
// per-occurrence firing probability, decided by hashing (seed, site,
// occurrence), with Times bounding the total firings (0 = unbounded).
type Fault struct {
	Site  Site
	Nth   uint64
	Rate  float64
	Times int
}

// ErrInjected is wrapped by every error and Failure this package produces;
// match it with errors.Is to tell injected faults from organic ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Failure is the panic value of sites that model allocation failure. The
// memo engine's recover converts it into an EngineFault; anything else that
// catches it can match it by type or via errors.Is(ErrInjected).
type Failure struct {
	Site Site
	N    uint64 // the occurrence that fired
}

func (f Failure) Error() string {
	return fmt.Sprintf("faultinject: %s failed (occurrence %d)", f.Site, f.N)
}

// Is makes errors.Is(f, ErrInjected) true.
func (f Failure) Is(target error) bool { return target == ErrInjected }

// transientError is what Transient returns: it unwraps to both ErrInjected
// and syscall.EINTR, so the snapshot layer's EINTR/EAGAIN classification
// retries it exactly like a real interrupted syscall.
type transientError struct {
	site Site
	n    uint64
}

func (e *transientError) Error() string {
	return fmt.Sprintf("faultinject: transient %s error (occurrence %d): %v", e.site, e.n, syscall.EINTR)
}

func (e *transientError) Unwrap() []error { return []error{ErrInjected, syscall.EINTR} }

// rule is one armed site's state.
type rule struct {
	Fault
	seen  uint64 // occurrences consumed
	fired uint64 // occurrences that failed
}

// Injector decides, occurrence by occurrence, whether each armed site
// fires. It is confined to one simulation goroutine, like the obs registry:
// runs that need independent fault streams build independent injectors.
type Injector struct {
	seed  uint64
	rules map[Site]*rule
}

// New builds an injector firing the given faults. Later faults for the same
// site replace earlier ones.
func New(seed uint64, faults ...Fault) *Injector {
	in := &Injector{seed: seed, rules: make(map[Site]*rule, len(faults))}
	for _, f := range faults {
		in.rules[f.Site] = &rule{Fault: f}
	}
	return in
}

// Chaos returns the opt-in chaos-mode preset used by `fastsim -chaos` and
// by fssrv jobs with a chaos_seed: transient IO errors that bounded retry
// should absorb, an occasional truncation (typed cold-start fallback),
// sparse chain bit flips (quarantined under shadow verification), and one
// rare allocation failure (typed ErrEngineFault). Every outcome is either
// self-healed or a typed error — which is exactly what core's
// TestChaosPresetNeverSilentlyWrong asserts.
func Chaos(seed uint64) *Injector {
	return New(seed,
		Fault{Site: SiteSnapshotRead, Rate: 1, Times: 2},
		Fault{Site: SiteSnapshotWrite, Rate: 1, Times: 2},
		Fault{Site: SiteSnapshotTrunc, Rate: 0.5, Times: 1},
		Fault{Site: SiteChainFlip, Rate: 1.0 / 512, Times: 8},
		Fault{Site: SiteMemoAlloc, Rate: 1.0 / (1 << 20), Times: 1},
	)
}

// mix is splitmix64, the finalizer used to hash (seed, site, occurrence)
// into an independent decision per occurrence.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func siteHash(s Site) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// FireValue consumes one occurrence of site and reports whether it fires,
// along with a deterministic 64-bit value derived from the same hash (used
// by corruption sites to pick which bit to flip). Nil-safe.
func (in *Injector) FireValue(site Site) (uint64, bool) {
	if in == nil {
		return 0, false
	}
	r := in.rules[site]
	if r == nil {
		return 0, false
	}
	r.seen++
	v := mix(in.seed ^ siteHash(site) ^ r.seen)
	fired := false
	switch {
	case r.Nth > 0:
		fired = r.seen == r.Nth
	case r.Rate > 0:
		if r.Times > 0 && r.fired >= uint64(r.Times) {
			break
		}
		fired = float64(v>>11)/(1<<53) < r.Rate
	}
	if fired {
		r.fired++
	}
	return v, fired
}

// Fire consumes one occurrence of site and reports whether it fires.
func (in *Injector) Fire(site Site) bool {
	_, fired := in.FireValue(site)
	return fired
}

// Transient consumes one occurrence of site and, when it fires, returns an
// EINTR-class error (see transientError); nil otherwise.
func (in *Injector) Transient(site Site) error {
	if in == nil {
		return nil
	}
	if _, fired := in.FireValue(site); fired {
		return &transientError{site: site, n: in.Seen(site)}
	}
	return nil
}

// Truncate returns data cut in half when site fires, data unchanged
// otherwise.
func (in *Injector) Truncate(site Site, data []byte) []byte {
	if in.Fire(site) {
		return data[:len(data)/2]
	}
	return data
}

// Seen returns the occurrences consumed at site so far.
func (in *Injector) Seen(site Site) uint64 {
	if in == nil || in.rules[site] == nil {
		return 0
	}
	return in.rules[site].seen
}

// Fired returns the occurrences that fired at site so far.
func (in *Injector) Fired(site Site) uint64 {
	if in == nil || in.rules[site] == nil {
		return 0
	}
	return in.rules[site].fired
}

// FiredTotal returns the firings across all sites.
func (in *Injector) FiredTotal() uint64 {
	if in == nil {
		return 0
	}
	var n uint64
	for _, s := range Sites() {
		n += in.Fired(s)
	}
	return n
}

// Summary renders per-site occurrence and firing counts in the fixed Sites
// order, for chaos-mode reports.
func (in *Injector) Summary() string {
	if in == nil {
		return "faultinject: disabled"
	}
	out := "faultinject:"
	any := false
	for _, s := range Sites() {
		if in.rules[s] == nil {
			continue
		}
		any = true
		out += fmt.Sprintf(" %s=%d/%d", s, in.Fired(s), in.Seen(s))
	}
	if !any {
		return "faultinject: no sites armed"
	}
	return out
}
