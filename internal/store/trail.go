package store

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Trail is the one commit-and-recover protocol for state kept as a
// directory of numbered files, each written whole: the disk store's evidence, the
// service journal and the checkpoint trail are all Trails, differing only
// in file name, durability and what makes an entry valid.
//
// Commit is tmp → write → [fsync] → rename → [directory fsync], the
// bracketed steps when Durable: a crash leaves the old entry or the new
// one, and a returned Durable commit survives a power cut. A crash DURING
// a commit leaves a *.tmp orphan or — without the fsync, on filesystems
// that reorder data and rename — a torn newest entry. Scan repairs both:
// orphans are removed, and an entry the caller's verifier rejects is
// renamed *.corrupt when it is the last one (nothing after it exists to
// lose) and is a hard error anywhere else (later entries build on it).
//
// Only names that round-trip through Format are the trail's own; every
// other file in Dir is left alone. Not safe for concurrent use: each
// client already serializes its writes.
type Trail struct {
	// Dir holds the entries; Commit creates it when missing.
	Dir string
	// Format names entry seq: an fmt format with one integer verb, e.g.
	// "round-%06d.ckpt".
	Format string
	// Durable makes Commit fsync the file and its directory. False suits
	// state that only has to survive the death of the process.
	Durable bool
	// Logf, when set, is called once per quarantined entry.
	Logf func(format string, args ...any)

	fs fsys // nil means the operating system's
}

// Path returns the file name of entry seq.
func (t *Trail) Path(seq int) string {
	return filepath.Join(t.Dir, fmt.Sprintf(t.Format, seq))
}

// Commit creates or replaces entry seq with data.
func (t *Trail) Commit(seq int, data []byte) error {
	return commitFile(t.fsys(), t.Path(seq), data, t.Durable)
}

// Remove deletes entry seq.
func (t *Trail) Remove(seq int) error { return t.fsys().Remove(t.Path(seq)) }

// Clear deletes every entry (and orphan) of the trail.
func (t *Trail) Clear() error {
	seqs, err := t.entries()
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if err := t.Remove(seq); err != nil {
			return err
		}
	}
	return nil
}

// Scan recovers the trail: each entry's bytes go to verify in ascending
// sequence order. A verify error on the last entry quarantines it as
// *.corrupt and ends the scan without error; on any other entry it is
// returned, naming the file, and nothing is renamed. A missing Dir is an
// empty trail.
func (t *Trail) Scan(verify func(seq int, data []byte) error) error {
	seqs, err := t.entries()
	if err != nil {
		return err
	}
	fs := t.fsys()
	for i, seq := range seqs {
		path := t.Path(seq)
		data, err := fs.ReadFile(path)
		if err != nil {
			// Unreadable is not known to be torn: never quarantined.
			return fmt.Errorf("store: reading %s: %w", filepath.Base(path), err)
		}
		if err = verify(seq, data); err == nil {
			continue
		}
		if i != len(seqs)-1 {
			return fmt.Errorf("store: %s: %w (not the trailing entry; refusing to drop the entries after it)",
				filepath.Base(path), err)
		}
		q := path + ".corrupt"
		if qerr := fs.Rename(path, q); qerr != nil {
			return fmt.Errorf("store: quarantining %s: %v (%w)", filepath.Base(path), qerr, err)
		}
		if t.Logf != nil {
			t.Logf("store: quarantined torn trailing entry %s -> %s: %v", path, q, err)
		}
	}
	return nil
}

// entries lists the trail's sequence numbers in ascending order and
// removes the *.tmp orphans of its own commits that never finished.
func (t *Trail) entries() ([]int, error) {
	fs := t.fsys()
	names, err := fs.ReadDir(t.Dir)
	if err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return nil, fmt.Errorf("store: listing trail: %w", err)
	}
	var seqs []int
	for _, name := range names {
		if entry, ok := strings.CutSuffix(name, ".tmp"); ok {
			if _, own := t.seqOf(entry); own {
				// An orphan is never read as state; one that cannot be
				// removed costs its space, not correctness.
				_ = fs.Remove(filepath.Join(t.Dir, name))
			}
		} else if seq, own := t.seqOf(name); own {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// seqOf parses an entry name; only a name Format itself would print is
// the trail's own.
func (t *Trail) seqOf(name string) (int, bool) {
	var seq int
	if _, err := fmt.Sscanf(name, t.Format, &seq); err != nil || seq < 0 {
		return 0, false
	}
	return seq, fmt.Sprintf(t.Format, seq) == name
}

func (t *Trail) fsys() fsys {
	if t.fs == nil {
		return osFS{}
	}
	return t.fs
}

// commitFile replaces path with data through a sibling temp file, so a
// kill at any instant leaves the old file or the new one, never a mix.
// durable adds the two fsyncs that extend this to a power cut. The
// directory is created when missing.
func commitFile(fs fsys, path string, data []byte, durable bool) error {
	tmp := path + ".tmp"
	if err := fs.MkdirAll(filepath.Dir(path)); err != nil {
		return fmt.Errorf("store: committing %s: %w", filepath.Base(path), err)
	}
	f, err := fs.Create(tmp)
	if err == nil {
		_, err = f.Write(data)
		if err == nil && durable {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		_ = fs.Remove(tmp) // best effort: a scan removes what this leaves
		return fmt.Errorf("store: committing %s: %w", filepath.Base(path), err)
	}
	if durable {
		// Best effort: some platforms refuse to sync a directory handle.
		_ = fs.SyncDir(filepath.Dir(path))
	}
	return nil
}

// fsys is every filesystem call a commit or a recovery scan makes — the
// seam the fault sweep fails one call at a time. The operating system is
// the only production implementation.
type fsys interface {
	MkdirAll(dir string) error
	Create(path string) (file, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	ReadFile(path string) ([]byte, error)
	// ReadDir returns the names of the regular files in dir.
	ReadDir(dir string) ([]string, error)
	SyncDir(dir string) error
}

// file is the write side of one created file.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

type osFS struct{}

func (osFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }
func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) Create(path string) (file, error) { return os.Create(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
