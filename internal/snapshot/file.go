package snapshot

import (
	"fmt"
	"os"
	"path/filepath"

	"fastsim/internal/faultinject"
)

// FileOptions configures SaveFile/LoadFile: for tests and the chaos modes,
// a fault injector armed at the snapshot sites (read and write errors,
// post-read truncation).
type FileOptions struct {
	Inject *faultinject.Injector
}

// WriteAtomic writes data to path with the crash-safe temp+fsync+rename
// discipline: a crash at any point leaves either the old file or the new
// one, never a torn mix. It is the building block SaveFile uses, exported
// for the server's journal compaction.
func WriteAtomic(path string, data []byte) error {
	return writeAtomic(filepath.Dir(path), path, data)
}

// Save writes img to path crash-safely and returns the file size. It is
// SaveFile with zero options: no injection.
func Save(path string, img *Image) (n int, err error) {
	return SaveFile(path, img, FileOptions{})
}

// SaveFile writes img to path crash-safely under opts: the bytes go to a
// temp file in the same directory, are fsynced, and the temp file is renamed
// over path. A crash (or injected fault) at any point leaves either the old
// snapshot or the new one, never a torn mix.
func SaveFile(path string, img *Image, opts FileOptions) (n int, err error) {
	if err := opts.Inject.Transient(faultinject.SiteSnapshotWrite); err != nil {
		return 0, fmt.Errorf("snapshot: save: %w", err)
	}
	data := Encode(img)
	if err := writeAtomic(filepath.Dir(path), path, data); err != nil {
		return 0, err
	}
	return len(data), nil
}

// writeAtomic is one temp+fsync+rename.
func writeAtomic(dir, path string, data []byte) (err error) {
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: save: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if _, err = f.Write(data); err != nil {
		return fmt.Errorf("snapshot: save: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("snapshot: save: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("snapshot: save: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: save: %w", err)
	}
	return nil
}

// Load reads and decodes the snapshot at path. It is LoadFile with zero
// options: no injection. A missing file surfaces as an error
// satisfying errors.Is(err, fs.ErrNotExist), which callers treat as a
// silent cold start; decode failures carry ErrCorrupt, ErrVersion or
// ErrMismatch.
func Load(path string, wantFingerprint uint64) (*Image, error) {
	return LoadFile(path, wantFingerprint, FileOptions{})
}

// LoadFile reads and decodes the snapshot at path under opts. The
// injector's read site fails the read (callers take their cold-start
// fallback) and its truncate site clips the bytes after a successful read
// (to exercise checksum detection downstream).
func LoadFile(path string, wantFingerprint uint64, opts FileOptions) (*Image, error) {
	if err := opts.Inject.Transient(faultinject.SiteSnapshotRead); err != nil {
		return nil, fmt.Errorf("snapshot: load: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	data = opts.Inject.Truncate(faultinject.SiteSnapshotTrunc, data)
	return Decode(data, wantFingerprint)
}

// Inspect reads and decodes the snapshot at path without a fingerprint to
// compare against — the offline-analysis entry point (see DecodeAny). No
// injection.
func Inspect(path string) (*Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeAny(data)
}
