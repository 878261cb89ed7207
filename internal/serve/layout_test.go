package serve

import (
	"context"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	cem "repro"
)

// TestStateDirLayout pins what a service leaves under its state
// directory — the on-disk compatibility the smoke script, and a state
// directory written by an earlier build, rely on: the journal and the
// store's two blobs — no round trail, no evidence segment — under these
// names and no others, with no temp file left after a clean shutdown.
func TestStateDirLayout(t *testing.T) {
	records := testRecords(t, cem.HEPTH)
	want := []string{
		"journal/batch-000001.tsv",
		"journal/batch-000002.tsv",
		"journal/batch-000003.tsv",
		"store/blob/postings/latest",
		"store/blob/snapshot/latest",
	}
	state := t.TempDir()
	svc, err := New(context.Background(), Config{StateDir: state, Batching: fastBatching})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batchCuts(records)[:3] {
		ingestWait(t, svc, b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	var got []string
	err = filepath.WalkDir(state, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(state, path)
		got = append(got, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the state directory holds\n%v\nwant\n%v", got, want)
	}
}
