package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"

	"fastsim/internal/faultinject"
	"fastsim/internal/snapshot"
)

// The job journal is an append-only JSONL file recording every lifecycle
// transition of every accepted job:
//
//	accept  — the job is durably admitted (spec included)
//	start   — a worker began the run
//	done    — the job completed (result digest included)
//	fail    — the job failed with a typed code
//	cancel  — the job was cancelled (client, disconnect, or deadline)
//
// Every record carries an FNV-64a self-checksum and is fsynced before the
// transition it records becomes externally visible, so after a crash at
// any instant the journal is a prefix of the truth: a torn or corrupt
// tail line is dropped on recovery (never trusted, never fatal) and every
// accepted-but-unfinished job is re-queued. The same temp+fsync+rename
// discipline as internal/snapshot (snapshot.WriteAtomic) rewrites the
// journal at recovery, compacting finished jobs away.
//
// Journals written by older builds may also hold "retry" records and an
// "attempt" member; they verify (verifyLine checks the written bytes) and
// recovery ignores them.
type journalRec struct {
	Seq    uint64   `json:"seq"`
	Rec    string   `json:"rec"`
	Job    string   `json:"job"`
	JobSeq uint64   `json:"job_seq,omitempty"`
	Spec   *JobSpec `json:"spec,omitempty"`
	Code   Code     `json:"code,omitempty"`
	Msg    string   `json:"msg,omitempty"`
	Digest string   `json:"digest,omitempty"`
	// The line's last member, "sum", is the FNV-64a hex checksum of the
	// encoding before it; seal writes it and verifyLine checks it.
}

const (
	recAccept = "accept"
	recStart  = "start"
	recDone   = "done"
	recFail   = "fail"
	recCancel = "cancel"
)

// seal returns the record's final encoded line (newline-terminated): its
// JSON encoding with the closing brace replaced by `,"sum":"<16 hex>"}`,
// the checksum of that encoding.
func (r *journalRec) seal() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	sum := lineSum(b)
	b = append(b[:len(b)-1], sumPrefix...)
	b = append(b, sum...)
	return append(b, '"', '}', '\n'), nil
}

// sumPrefix introduces the checksum member seal appends to every line.
const sumPrefix = `,"sum":"`

func lineSum(b []byte) string {
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck // fnv.Write never fails
	return fmt.Sprintf("%016x", h.Sum64())
}

// verifyLine checks a journal line's checksum against the bytes that were
// written, not a re-encoding of the decoded record: the pre-sum encoding is
// the line with its trailing sum member cut back to a closing brace. A
// record carrying a field this build no longer knows therefore still
// verifies, so an upgrade never drops it as a torn tail.
func verifyLine(line []byte) bool {
	const tail = len(sumPrefix) + 16 + len(`"}`)
	n := len(line) - tail
	if n < 1 || string(line[n:n+len(sumPrefix)]) != sumPrefix || string(line[len(line)-2:]) != `"}` {
		return false
	}
	body := append(line[:n:n], '}')
	return lineSum(body) == string(line[n+len(sumPrefix):len(line)-2])
}

// journal is the crash-safe job log. A nil *journal (journaling disabled)
// accepts every call as a no-op.
type journal struct {
	path string

	// fsync flushes the file; tests substitute it to model fsync failures
	// (nearly impossible to provoke on a real filesystem).
	fsync func(*os.File) error

	// inject, when armed, fires the server.journal.write site inside each
	// append; injMu serializes it with the server's other injector users
	// (the injector itself is single-goroutine).
	inject *faultinject.Injector
	injMu  *sync.Mutex

	mu sync.Mutex
	// fastsim:guarded-by(mu)
	f *os.File
	// fastsim:guarded-by(mu)
	seq uint64
	// fastsim:guarded-by(mu)
	appends uint64
	// fastsim:guarded-by(mu)
	torn uint64
}

// maxJournalLine bounds a single journal record on read. Admission caps
// specs (maxAsmBytes, maxSpecBytes) far below it, so any line this long
// is corruption, not data.
const maxJournalLine = 4 << 20

// readJournal decodes the journal at path, tolerating a torn tail: the
// first undecodable, checksum-failing, or oversized line ends the read,
// and every line after it is discarded (a record after a torn line cannot
// be ordered against the tear, so trusting it would reorder history).
// Returns the surviving records and the number of dropped lines.
func readJournal(path string) (recs []journalRec, dropped int, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close() //nolint:errcheck // read-only
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxJournalLine)
	lines := 0
	for sc.Scan() {
		lines++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r journalRec
		if !verifyLine(line) || json.Unmarshal(line, &r) != nil {
			// Torn tail: count this and everything after it as dropped.
			dropped = 1
			for sc.Scan() {
				dropped++
			}
			return recs, dropped, nil
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// An oversized line can never verify, so it is corruption by
			// definition: treat it like a torn tail (drop it and whatever
			// follows) rather than failing recovery — one bad record must
			// never brick the server.
			return recs, 1, nil
		}
		return recs, 0, err
	}
	return recs, 0, nil
}

// openJournal opens (creating if needed) the append handle at path and
// returns the journal primed to continue after the given last sequence
// number.
func openJournal(path string, lastSeq uint64, inject *faultinject.Injector, injMu *sync.Mutex) (*journal, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{path: path, fsync: (*os.File).Sync, inject: inject, injMu: injMu, f: f, seq: lastSeq}, nil
}

// append seals and durably writes one record: write + fsync, with the
// server.journal.write fault site armed before the write. A failed write
// or fsync truncates back to the pre-write offset, so the next append
// never follows a torn line (which the torn-tail rule would discard along
// with everything after it) or a record the caller was told had failed.
func (j *journal) append(r journalRec) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	r.Seq = j.seq
	line, err := r.seal()
	if err != nil {
		return err
	}
	if j.inject != nil {
		j.injMu.Lock()
		ferr := j.inject.Transient(faultinject.SiteJournalWrite)
		j.injMu.Unlock()
		if ferr != nil {
			return fmt.Errorf("journal append: %w", ferr)
		}
	}
	off, err := j.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	if _, err := j.f.Write(line); err != nil {
		j.f.Truncate(off) //nolint:errcheck // best-effort rollback; a torn line is tolerated on read
		return fmt.Errorf("journal append: %w", err)
	}
	if err := j.fsync(j.f); err != nil {
		// The line hit the page cache in full, so without the rollback the
		// next append would follow a sealed record the caller was told had
		// failed. Post-failure page-cache state is unreliable, so the
		// handle is reopened for the next append.
		j.f.Truncate(off) //nolint:errcheck // best-effort rollback; a torn line is tolerated on read
		if nf, oerr := os.OpenFile(j.path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); oerr == nil {
			j.f.Close() //nolint:errcheck // superseded handle
			j.f = nf
		}
		return fmt.Errorf("journal append: %w", err)
	}
	j.appends++
	return nil
}

// compact atomically rewrites the journal to exactly recs (temp + fsync +
// rename via snapshot.WriteAtomic) and reopens the append handle. Used at
// recovery to drop finished jobs' history.
func (j *journal) compact(recs []journalRec) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var buf bytes.Buffer
	seq := uint64(0)
	for i := range recs {
		seq++
		recs[i].Seq = seq
		line, err := recs[i].seal()
		if err != nil {
			return err
		}
		buf.Write(line)
	}
	if err := snapshot.WriteAtomic(j.path, buf.Bytes()); err != nil {
		return err
	}
	old := j.f
	f, err := os.OpenFile(j.path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	old.Close() //nolint:errcheck // superseded handle
	j.f = f
	j.seq = seq
	return nil
}

// noteTorn records dropped-line counts from recovery for /v1/stats.
func (j *journal) noteTorn(n int) {
	if j == nil || n == 0 {
		return
	}
	j.mu.Lock()
	j.torn += uint64(n)
	j.mu.Unlock()
}

// stats returns append and torn-tail counters.
func (j *journal) stats() (appends, torn uint64) {
	if j == nil {
		return 0, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends, j.torn
}

// close syncs and closes the journal file.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
