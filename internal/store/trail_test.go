package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wire"
)

// trailClient is one of the three users of Trail, reduced to what the
// protocol sees of it: a file name, a durability, valid bytes for an
// entry, and the verifier that tells valid from torn.
type trailClient struct {
	name    string
	format  string
	durable bool
	entry   func(seq int) []byte
	verify  func(data []byte) error
}

func trailClients(t testing.TB) []trailClient {
	return []trailClient{
		{
			// The disk store's evidence entries.
			name: "segment", format: evidenceFormat, durable: true,
			entry: func(seq int) []byte {
				keys := sortedKeys(rand.New(rand.NewSource(int64(seq))), 40+seq)
				data, err := (&wire.Delta{Round: seq, Keys: keys}).Marshal(wire.Binary)
				if err != nil {
					t.Fatal(err)
				}
				return data
			},
			verify: func(data []byte) error {
				_, err := wire.UnmarshalDelta(data)
				return err
			},
		},
		{
			// The service journal's shape: record lines, then a footer
			// line carrying their count.
			name: "journal-batch", format: "batch-%06d.tsv", durable: true,
			entry: func(seq int) []byte {
				var b bytes.Buffer
				fmt.Fprintf(&b, "# batch-%06d\n", seq)
				for i := 0; i < 3+seq; i++ {
					fmt.Fprintf(&b, "key-%d-%d\tgroup-%d\tgold-%d\n", seq, i, seq, i)
				}
				fmt.Fprintf(&b, "# journal-end %d\n", 3+seq)
				return b.Bytes()
			},
			verify: func(data []byte) error {
				lines := strings.SplitAfter(string(data), "\n")
				records := 0
				for _, l := range lines {
					if l != "" && !strings.HasPrefix(l, "#") {
						if strings.Count(l, "\t") != 2 || !strings.HasSuffix(l, "\n") {
							return fmt.Errorf("torn record line %q", l)
						}
						records++
					}
				}
				if len(lines) < 2 || lines[len(lines)-2] != fmt.Sprintf("# journal-end %d\n", records) {
					return errors.New("missing or mismatched footer")
				}
				return nil
			},
		},
		{
			name: "round-record", format: "round-%06d.ckpt", durable: false,
			entry: func(seq int) []byte {
				ck := &wire.Checkpoint{
					Scheme: "SMP", Matcher: "mln", Neighborhoods: 3, Entities: 100_000, Round: seq,
					Delta:  sortedKeys(rand.New(rand.NewSource(int64(seq))), 25),
					Active: []int32{0, 2}, Visits: []int{seq, 1, 0},
				}
				data, err := ck.Marshal(wire.Binary)
				if err != nil {
					t.Fatal(err)
				}
				return data
			},
			verify: func(data []byte) error {
				_, err := wire.UnmarshalCheckpoint(data)
				return err
			},
		},
	}
}

// scanned runs Scan and returns the sequence numbers it accepted and how
// often it logged.
func scanned(tr *Trail, verify func([]byte) error) (seqs []int, logged int, err error) {
	tr.Logf = func(string, ...any) { logged++ }
	err = tr.Scan(func(seq int, data []byte) error {
		if err := verify(data); err != nil {
			return err
		}
		seqs = append(seqs, seq)
		return nil
	})
	return seqs, logged, err
}

func listDir(t testing.TB, dir string) []string {
	t.Helper()
	names, err := osFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestTrail holds the protocol to its contract once for all three
// clients: the same four cases through each client's verifier.
func TestTrail(t *testing.T) {
	for _, c := range trailClients(t) {
		t.Run(c.name, func(t *testing.T) {
			newTrail := func(t *testing.T) *Trail {
				tr := &Trail{Dir: filepath.Join(t.TempDir(), "trail"), Format: c.format, Durable: c.durable}
				for seq := 1; seq <= 3; seq++ {
					if err := tr.Commit(seq, c.entry(seq)); err != nil {
						t.Fatal(err)
					}
				}
				return tr
			}

			t.Run("trailing-truncation-at-every-byte", func(t *testing.T) {
				tr := newTrail(t)
				last := c.entry(3)
				for cut := 0; cut < len(last); cut++ {
					if err := os.WriteFile(tr.Path(3), last[:cut], 0o644); err != nil {
						t.Fatal(err)
					}
					seqs, logged, err := scanned(tr, c.verify)
					if err != nil {
						t.Fatalf("cut %d/%d: scan failed: %v", cut, len(last), err)
					}
					if !reflect.DeepEqual(seqs, []int{1, 2}) || logged != 1 {
						t.Fatalf("cut %d/%d: recovered %v with %d log calls, want [1 2] and 1", cut, len(last), seqs, logged)
					}
					q, _ := filepath.Glob(filepath.Join(tr.Dir, "*.corrupt"))
					if len(q) != 1 || q[0] != tr.Path(3)+".corrupt" {
						t.Fatalf("cut %d/%d: quarantined %v, want exactly the trailing entry", cut, len(last), q)
					}
					if err := os.Remove(q[0]); err != nil {
						t.Fatal(err)
					}
				}
			})

			t.Run("non-trailing-damage", func(t *testing.T) {
				tr := newTrail(t)
				first := c.entry(1)
				if err := os.WriteFile(tr.Path(1), first[:len(first)/2], 0o644); err != nil {
					t.Fatal(err)
				}
				before := listDir(t, tr.Dir)
				_, logged, err := scanned(tr, c.verify)
				if err == nil || !strings.Contains(err.Error(), filepath.Base(tr.Path(1))) {
					t.Fatalf("scan over a damaged first entry: %v, want an error naming it", err)
				}
				if after := listDir(t, tr.Dir); !reflect.DeepEqual(after, before) || logged != 0 {
					t.Fatalf("a hard error renamed or removed files: %v -> %v (%d log calls)", before, after, logged)
				}
			})

			// Files that are not the trail's own: a foreign temp file, and
			// names Format can parse but would not print.
			foreign := []string{
				"notes.tmp",
				"x" + fmt.Sprintf(c.format, 4),
				fmt.Sprintf(c.format, 4) + ".bak",
				fmt.Sprintf(strings.NewReplacer("%08d", "%d", "%06d", "%d").Replace(c.format), 4),
			}
			plant := func(t *testing.T, tr *Trail, names ...string) {
				for _, name := range names {
					if err := os.WriteFile(filepath.Join(tr.Dir, name), []byte("partial"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			present := func(t *testing.T, tr *Trail, names []string) {
				t.Helper()
				for _, name := range names {
					if _, err := os.Stat(filepath.Join(tr.Dir, name)); err != nil {
						t.Errorf("foreign file was touched: %v", err)
					}
				}
			}

			t.Run("orphans", func(t *testing.T) {
				tr := newTrail(t)
				orphan := fmt.Sprintf(c.format, 7) + ".tmp"
				plant(t, tr, append(foreign, orphan)...)
				seqs, logged, err := scanned(tr, c.verify)
				if err != nil || !reflect.DeepEqual(seqs, []int{1, 2, 3}) || logged != 0 {
					t.Fatalf("scan = %v, %d log calls, %v", seqs, logged, err)
				}
				if _, err := os.Stat(filepath.Join(tr.Dir, orphan)); !os.IsNotExist(err) {
					t.Errorf("the trail's own orphan survived the scan: %v", err)
				}
				present(t, tr, foreign)
			})

			t.Run("clear", func(t *testing.T) {
				tr := newTrail(t)
				plant(t, tr, foreign...)
				if err := tr.Clear(); err != nil {
					t.Fatal(err)
				}
				seqs, _, err := scanned(tr, c.verify)
				if err != nil || len(seqs) != 0 {
					t.Fatalf("scan after Clear = %v, %v; want empty", seqs, err)
				}
				if got := listDir(t, tr.Dir); len(got) != len(foreign) {
					t.Errorf("after Clear the directory holds %v, want only %v", got, foreign)
				}
				present(t, tr, foreign)
			})
		})
	}

	t.Run("missing-dir", func(t *testing.T) {
		tr := &Trail{Dir: filepath.Join(t.TempDir(), "never-created"), Format: evidenceFormat}
		if err := tr.Scan(func(int, []byte) error { return errors.New("called") }); err != nil {
			t.Errorf("Scan of a missing directory: %v", err)
		}
		if err := tr.Clear(); err != nil {
			t.Errorf("Clear of a missing directory: %v", err)
		}
	})
}

var errFault = errors.New("injected fault")

// faultFS is the test double behind the filesystem seam: the real
// filesystem until call failAt, which fails like every call after it — a
// process that dies there and whose cleanup attempts go nowhere. fsyncs
// are only recorded, not issued: what they guarantee is modelled by tear.
type faultFS struct {
	osFS
	failAt int
	calls  int
	// short makes the failing call, when it is a Write, land half its
	// bytes first.
	short bool
	// tear models the power cut a non-Durable trail is exposed to: at the
	// fault, the newest file that was renamed without an fsync loses its
	// second half.
	tear     bool
	synced   map[string]bool
	volatile string
}

func (f *faultFS) step() error {
	f.calls++
	if f.calls < f.failAt {
		return nil
	}
	if f.calls == f.failAt && f.tear && f.volatile != "" {
		if data, err := os.ReadFile(f.volatile); err == nil {
			os.WriteFile(f.volatile, data[:len(data)/2], 0o644)
		}
	}
	return errFault
}

func (f *faultFS) MkdirAll(dir string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.osFS.MkdirAll(dir)
}

func (f *faultFS) Create(path string) (file, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	real, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, real: real, path: path}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if err := f.step(); err != nil {
		return err
	}
	if !f.synced[oldpath] {
		f.volatile = newpath
	}
	return f.osFS.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(path string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.osFS.Remove(path)
}

func (f *faultFS) ReadFile(path string) ([]byte, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.osFS.ReadFile(path)
}

func (f *faultFS) ReadDir(dir string) ([]string, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.osFS.ReadDir(dir)
}

func (f *faultFS) SyncDir(string) error { return f.step() }

type faultFile struct {
	fs   *faultFS
	real *os.File
	path string
}

func (w *faultFile) Write(p []byte) (int, error) {
	if err := w.fs.step(); err != nil {
		if w.fs.short && w.fs.calls == w.fs.failAt {
			w.real.Write(p[:len(p)/2])
		}
		return 0, err
	}
	return w.real.Write(p)
}

func (w *faultFile) Sync() error {
	if err := w.fs.step(); err != nil {
		return err
	}
	if w.fs.synced == nil {
		w.fs.synced = map[string]bool{}
	}
	w.fs.synced[w.path] = true
	return nil
}

func (w *faultFile) Close() error {
	err := w.fs.step()
	if cerr := w.real.Close(); err == nil {
		err = cerr
	}
	return err
}

// sweepOutcome is what one run of the fault-sweep script was told had
// succeeded before the fault: acknowledged work a reopen must find.
type sweepOutcome struct {
	puts    int            // PutEvidence batches acknowledged
	blob    int            // blob versions acknowledged (value = version)
	journal map[int]string // journal-shaped trail as acknowledged: seq -> content
	pending map[int]string // the same after the operation in flight at the fault
	done    bool           // the script ran to its end
}

const (
	sweepBatches = 12
	sweepBlobs   = 3
)

func sweepBatch(i int) []uint64 {
	return sortedKeys(rand.New(rand.NewSource(int64(100+i))), 12)
}

func sweepBlob(version int) []byte {
	return bytes.Repeat([]byte{byte('0' + version)}, 500*version)
}

func sweepRound(gen string, seq int) []byte {
	return []byte(strings.Repeat(fmt.Sprintf("%s-round-%d;", gen, seq), 20))
}

// sweepScript drives every writer of the package through fs until the
// first error, which is the simulated death of the process.
func sweepScript(root string, fs fsys) (out sweepOutcome) {
	out.journal, out.pending = map[int]string{}, map[int]string{}
	d, err := openDisk(Options{Dir: filepath.Join(root, "store")}, fs)
	if err != nil {
		return out
	}
	for i := 0; i < sweepBatches; i++ {
		if err := d.PutEvidence(sweepBatch(i)); err != nil {
			return out
		}
		out.puts++
		if i%4 == 3 { // after batches 3, 7 and 11: the initial save and two replacements
			if err := d.SaveBlob(KindSnapshot, "latest", sweepBlob(out.blob+1)); err != nil {
				return out
			}
			out.blob++
		}
	}

	journal := &Trail{Dir: filepath.Join(root, "journal"), Format: "batch-%06d.tsv", Durable: true, fs: fs}
	commit := func(seq int, content string) bool {
		out.pending[seq] = content
		if journal.Commit(seq, []byte(content)) != nil {
			return false
		}
		out.journal[seq] = content
		return true
	}
	if !commit(1, "batch one") || !commit(2, "batch two") || !commit(3, "a rejected batch") {
		return out
	}
	delete(out.pending, 3)
	if journal.Remove(3) != nil {
		return out
	}
	delete(out.journal, 3)
	if !commit(3, "batch three") || !commit(4, "batch four") {
		return out
	}

	rounds := &Trail{Dir: filepath.Join(root, "rounds"), Format: "round-%06d.ckpt", Durable: false, fs: fs}
	for seq := 1; seq <= 3; seq++ {
		if rounds.Commit(seq, sweepRound("first", seq)) != nil {
			return out
		}
	}
	if rounds.Clear() != nil {
		return out
	}
	for seq := 1; seq <= 2; seq++ {
		if rounds.Commit(seq, sweepRound("second", seq)) != nil {
			return out
		}
	}
	out.done = true
	return out
}

// TestTrailFaultSweep fails every filesystem call of the script in turn
// (and every call after it), then reopens the wreck with the real
// filesystem: whatever was acknowledged must be there, whatever was in
// flight must be there whole or not at all, and recovery must not fail.
func TestTrailFaultSweep(t *testing.T) {
	contents := func(tr *Trail) (map[int]string, error) {
		got := map[int]string{}
		err := tr.Scan(func(seq int, data []byte) error {
			got[seq] = string(data)
			return nil
		})
		return got, err
	}
	for _, hostile := range []bool{false, true} {
		for k := 1; ; k++ {
			root := t.TempDir()
			out := sweepScript(root, &faultFS{failAt: k, short: hostile, tear: hostile})
			at := fmt.Sprintf("fault at call %d (hostile=%v)", k, hostile)

			d, err := OpenDisk(Options{Dir: filepath.Join(root, "store")})
			if err != nil {
				t.Fatalf("%s: reopening the store: %v", at, err)
			}
			got, err := Keys(d)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			// The evidence is a prefix of the batches, no shorter than
			// what was acknowledged.
			set := map[uint64]struct{}{}
			prefix := -1
			for p := 0; p <= sweepBatches; p++ {
				if p > 0 {
					for _, key := range sweepBatch(p - 1) {
						set[key] = struct{}{}
					}
				}
				if p >= out.puts && len(set) == len(got) {
					prefix = p
					for _, key := range got {
						if _, ok := set[key]; !ok {
							prefix = -1
						}
					}
					if prefix >= 0 {
						break
					}
				}
			}
			if prefix < 0 {
				t.Fatalf("%s: %d evidence keys are not the union of a batch prefix holding the %d acknowledged", at, len(got), out.puts)
			}
			// A blob is one whole version, the acknowledged one or the
			// one in flight.
			blob, err := d.OpenBlob(KindSnapshot, "latest")
			switch {
			case errors.Is(err, ErrNotFound):
				if out.blob != 0 {
					t.Fatalf("%s: acknowledged blob version %d is gone", at, out.blob)
				}
			case err != nil:
				t.Fatalf("%s: %v", at, err)
			case !bytes.Equal(blob, sweepBlob(out.blob)) && (out.blob == sweepBlobs || !bytes.Equal(blob, sweepBlob(out.blob+1))):
				t.Fatalf("%s: blob holds %d bytes (%.8q...), neither version %d nor the next", at, len(blob), blob, out.blob)
			}
			d.Close()

			journal := &Trail{Dir: filepath.Join(root, "journal"), Format: "batch-%06d.tsv", Durable: true}
			entries, err := contents(journal)
			if err != nil {
				t.Fatalf("%s: scanning the journal: %v", at, err)
			}
			if !reflect.DeepEqual(entries, out.journal) && !reflect.DeepEqual(entries, out.pending) {
				t.Fatalf("%s: journal scans back %v, acknowledged %v (in flight: %v)", at, entries, out.journal, out.pending)
			}

			rounds := &Trail{Dir: filepath.Join(root, "rounds"), Format: "round-%06d.ckpt", Durable: false}
			records, err := contents(rounds)
			if err != nil {
				t.Fatalf("%s: scanning the round trail: %v", at, err)
			}
			for seq, data := range records {
				// Not fsynced, so the newest record may be torn: it then
				// fails a real verifier, which this scan does not have.
				whole := data == string(sweepRound("first", seq)) || data == string(sweepRound("second", seq))
				torn := hostile && (strings.HasPrefix(string(sweepRound("first", seq)), data) || strings.HasPrefix(string(sweepRound("second", seq)), data))
				if !whole && !torn {
					t.Fatalf("%s: round record %d holds %q", at, seq, data)
				}
			}

			for _, dir := range []string{"store", "journal", "rounds"} {
				if tmps, _ := filepath.Glob(filepath.Join(root, dir, "*.tmp")); len(tmps) != 0 {
					t.Fatalf("%s: temp files survived recovery: %v", at, tmps)
				}
			}
			if out.done {
				if k < 100 {
					t.Fatalf("the script finished after only %d filesystem calls: the sweep is not reaching its writers", k)
				}
				break
			}
		}
	}
}

// FuzzTrailScan throws arbitrary directory listings and contents at a
// trail: Scan and Clear must never panic and never remove, rename or
// rewrite a file that is not the trail's own (an entry, its *.tmp, its
// *.corrupt).
func FuzzTrailScan(f *testing.F) {
	f.Add([]byte("\x00ok\xff\x01ok\xff\x02torn"), uint8(0))
	f.Add([]byte("\x10orphan\xff\x20quarantined\xff\x31foreign\xff\x02ok"), uint8(1))
	f.Add([]byte("\x33notes.tmp\xff\x00bad\xff\x01ok"), uint8(2))
	f.Add([]byte{}, uint8(0))
	formats := []string{evidenceFormat, "batch-%06d.tsv", "round-%06d.ckpt"}
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789.-_%"

	f.Fuzz(func(t *testing.T, listing []byte, pick uint8) {
		tr := &Trail{Dir: t.TempDir(), Format: formats[int(pick)%len(formats)]}
		foreign := map[string][]byte{}
		for i, chunk := range bytes.Split(listing, []byte{0xff}) {
			if len(chunk) == 0 || i > 40 {
				continue
			}
			head, body := chunk[0], chunk[1:]
			name := fmt.Sprintf(tr.Format, int(head&0x0f))
			switch head >> 4 {
			case 0: // an entry
			case 1:
				name += ".tmp"
			case 2:
				name += ".corrupt"
			default: // any other name the bytes spell
				var b strings.Builder
				for _, c := range body {
					b.WriteByte(alphabet[int(c)%len(alphabet)])
				}
				name = b.String()
				if len(name) > 60 {
					name = name[:60]
				}
				if strings.Trim(name, ".") == "" {
					continue
				}
			}
			if err := os.WriteFile(filepath.Join(tr.Dir, name), body, 0o644); err != nil {
				t.Skip(err)
			}
			base := strings.TrimSuffix(strings.TrimSuffix(name, ".tmp"), ".corrupt")
			if _, own := tr.seqOf(base); own {
				delete(foreign, name)
			} else {
				foreign[name] = body
			}
		}
		intact := func(after string) {
			for name, body := range foreign {
				got, err := os.ReadFile(filepath.Join(tr.Dir, name))
				if err != nil || !bytes.Equal(got, body) {
					t.Fatalf("%s touched foreign file %q: %v", after, name, err)
				}
			}
		}
		_ = tr.Scan(func(_ int, data []byte) error {
			if !bytes.HasPrefix(data, []byte("ok")) {
				return errors.New("not ok")
			}
			return nil
		})
		intact("Scan")
		if err := tr.Clear(); err != nil {
			t.Fatal(err)
		}
		intact("Clear")
		for _, name := range listDir(t, tr.Dir) {
			if _, own := tr.seqOf(strings.TrimSuffix(name, ".tmp")); own {
				t.Fatalf("Clear left the trail's own %q behind", name)
			}
		}
	})
}
