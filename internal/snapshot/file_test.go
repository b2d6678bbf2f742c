package snapshot

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"fastsim/internal/faultinject"
)

// An injected write fault fails the save before any byte reaches disk: the
// error is typed as injected (not a retryable EINTR), the previous snapshot
// stays byte-identical, and no temp file is left behind.
func TestSaveWriteFaultKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.fsnap")
	if _, err := Save(path, testImage()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	img := testImage()
	img.Fingerprint++
	inj := faultinject.New(1, faultinject.Fault{Site: faultinject.SiteSnapshotWrite, Nth: 1})
	_, err = SaveFile(path, img, FileOptions{Inject: inj})
	if !errors.Is(err, faultinject.ErrInjected) || errors.Is(err, syscall.EINTR) {
		t.Fatalf("faulted save error = %v, want ErrInjected and not EINTR", err)
	}
	if got := inj.Seen(faultinject.SiteSnapshotWrite); got != 1 {
		t.Errorf("write site consumed %d occurrences, want 1 (one attempt)", got)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("faulted save changed the previous snapshot")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after a faulted save, want only the snapshot", len(entries))
	}
}

// An injected read fault fails the load after one read attempt with an
// error typed as injected; an injected truncation corrupts the bytes after
// a successful read, and the checksum rejects them with ErrCorrupt.
func TestLoadReadFaultOneAttempt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.fsnap")
	if _, err := Save(path, testImage()); err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(2, faultinject.Fault{Site: faultinject.SiteSnapshotRead, Nth: 1})
	_, err := LoadFile(path, testFP, FileOptions{Inject: inj})
	if !errors.Is(err, faultinject.ErrInjected) || errors.Is(err, syscall.EINTR) {
		t.Fatalf("faulted load error = %v, want ErrInjected and not EINTR", err)
	}
	if got := inj.Seen(faultinject.SiteSnapshotRead); got != 1 {
		t.Errorf("read site consumed %d occurrences, want 1 (one attempt)", got)
	}
	// The fault fired once; the next load reads the file intact.
	got, err := LoadFile(path, testFP, FileOptions{Inject: inj})
	if err != nil {
		t.Fatalf("load after the fault: %v", err)
	}
	if !reflect.DeepEqual(got, testImage()) {
		t.Errorf("load after the fault mismatch")
	}

	inj = faultinject.New(3, faultinject.Fault{Site: faultinject.SiteSnapshotTrunc, Nth: 1})
	_, err = LoadFile(path, testFP, FileOptions{Inject: inj})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated load error = %v, want ErrCorrupt", err)
	}
}

// A missing file surfaces as fs.ErrNotExist, so callers keep their silent
// cold-start contract.
func TestLoadMissingFileNotRetried(t *testing.T) {
	_, err := LoadFile(filepath.Join(t.TempDir(), "absent"), testFP, FileOptions{})
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
}
