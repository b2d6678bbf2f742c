// Package obsgoroutine self-tests the obshook analyzer's goroutine-capture
// rule: Observer hooks must not be called from a goroutine on an observer
// captured from the enclosing function — observers are single-writer.
package obsgoroutine

import (
	"sync"

	"fastsim/internal/obs"
)

type harness struct {
	o *obs.Observer
}

// badShared captures the harness's observer in worker goroutines: the
// workers interleave writes into one stream.
func (h *harness) badShared() {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.o.Tick(1) // want "captured from the enclosing function"
		}()
	}
	wg.Wait()
}

// badSharedLocal captures a locally declared observer — still shared across
// the goroutine boundary.
func badSharedLocal() {
	shared := obs.New(obs.Options{})
	done := make(chan struct{})
	go func() {
		shared.ReplayBegin(0) // want "captured from the enclosing function"
		shared.Finish(10)     // want "captured from the enclosing function"
		close(done)
	}()
	<-done
}

// goodRunLocal builds the observer inside the goroutine: goroutine-private,
// accepted.
func goodRunLocal() {
	done := make(chan struct{})
	go func() {
		local := obs.New(obs.Options{})
		local.Tick(1)
		local.Finish(2)
		close(done)
	}()
	<-done
}

// goodParameter receives the observer as the goroutine function's own
// binding (a per-worker observer handed over at spawn): accepted.
func goodParameter(perWorker []*obs.Observer) {
	var wg sync.WaitGroup
	for _, o := range perWorker {
		wg.Add(1)
		go func(o *obs.Observer) {
			defer wg.Done()
			o.Tick(1)
		}(o)
	}
	wg.Wait()
}

// goodAnnotated documents why the sharing is safe.
func goodAnnotated(shared *obs.Observer) {
	done := make(chan struct{})
	go func() {
		//fastsim:observer-goroutine: the spawner blocks on done before touching the observer, so writes never interleave
		shared.Tick(1)
		close(done)
	}()
	<-done
}

// goodSequential is ordinary non-goroutine hook use: accepted.
func goodSequential(o *obs.Observer) {
	o.Tick(1)
	o.Finish(2)
}
