// Command fssrv serves fastsim as a multi-tenant simulation service: a
// JSON HTTP API that accepts (program, machine configuration, options)
// jobs, runs them on a bounded worker pool with admission control and
// per-job deadlines, shares recorded p-action chains between tenants
// through the shared cache, and — with -journal — survives crashes by
// recovering every accepted job from an fsynced append-only journal. A job
// runs once: a failed run ends on its typed error code, and resubmission
// belongs with the client. See docs/SERVER.md for the API and job
// lifecycle.
//
// Usage:
//
//	fssrv -addr :8080                         # in-memory service
//	fssrv -addr :8080 -journal jobs.jsonl     # crash-safe job journal
//	fssrv -workers 8 -queue 128 -mem-budget 2147483648
//
// SIGTERM/SIGINT triggers a graceful drain: new submissions are shed
// with 503 draining, running jobs finish (up to -drain-timeout), then
// the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fastsim/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "simulation worker pool size (0 = server default)")
		queue     = flag.Int("queue", 0, "admission queue depth (0 = server default)")
		journal   = flag.String("journal", "", "crash-safe job journal path (empty = in-memory only)")
		memBudget = flag.Int64("mem-budget", 0, "aggregate p-action cache byte budget across admitted jobs (0 = unlimited)")
		timeout   = flag.Duration("job-timeout", 5*time.Minute, "default per-job deadline")
		drain     = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound before running jobs are cancelled")
	)
	flag.Parse()

	s, err := server.New(server.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		JournalPath:    *journal,
		MemBudget:      *memBudget,
		DefaultTimeout: *timeout,
		DrainTimeout:   *drain,
	})
	if err != nil {
		fatal(err)
	}
	if st := s.Stats(); st.Recovered > 0 || st.JournalTorn > 0 {
		fmt.Fprintf(os.Stderr, "fssrv: journal recovery: %d jobs re-queued, %d torn lines dropped\n",
			st.Recovered, st.JournalTorn)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "fssrv: serving on %s\n", *addr)

	select {
	case err := <-errc:
		_ = s.Close() //nolint:errcheck // already failing
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, shed new jobs, let the
	// pool finish, then exit.
	fmt.Fprintln(os.Stderr, "fssrv: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "fssrv: http shutdown:", err)
	}
	if err := s.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "fssrv: drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fssrv:", err)
	os.Exit(1)
}
