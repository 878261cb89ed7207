package cem

import (
	"fmt"
	"io"

	"repro/internal/bib"
	"repro/internal/datagen"
	"repro/match"
)

// Record is the raw ingestion unit of the Pipeline: anything that can
// name the string to block and match on. Records optionally carry
// relational and evaluation signal through the Grouped and Labeled
// extensions; a bare Record is matched on its key alone.
type Record interface {
	// RecordKey returns the surface string (e.g., an author name) the
	// blocking stage and the matchers operate on.
	RecordKey() string
}

// Grouped is the optional relational extension of Record: records
// reporting the same non-negative group id are linked (they become
// coauthors in the synthesized bibliography — the relation collective
// matchers exploit). A negative group means "ungrouped".
type Grouped interface {
	RecordGroup() int32
}

// Labeled is the optional evaluation extension of Record: the gold
// entity id of the record, or a negative value when unknown. The
// Pipeline computes precision/recall and B-cubed metrics only when every
// record is labeled.
type Labeled interface {
	RecordGold() int32
}

// BasicRecord is the ready-made Record implementation: a key plus group
// and gold ids. CAUTION: 0 is a real group/label id, not "none" — a
// record without a group or label must say so explicitly with -1, or the
// pipeline will treat zero-valued records as one coauthor group all
// labeled entity 0 and score against that. When you only have keys, use
// KeyRecord, whose records carry no group/label at all.
type BasicRecord struct {
	Key   string
	Group int32
	Gold  int32
}

// RecordKey implements Record.
func (r BasicRecord) RecordKey() string { return r.Key }

// RecordGroup implements Grouped.
func (r BasicRecord) RecordGroup() int32 { return r.Group }

// RecordGold implements Labeled.
func (r BasicRecord) RecordGold() int32 { return r.Gold }

// KeyRecord wraps a bare string as an ungrouped, unlabeled Record — the
// safe way to feed the Pipeline when all you have is keys.
func KeyRecord(key string) Record { return keyRecord(key) }

type keyRecord string

func (k keyRecord) RecordKey() string { return string(k) }

// recordsFromBib lifts internal flat records into the public Record
// form — the single conversion point shared by every record source.
func recordsFromBib(raw []bib.Record) []Record {
	out := make([]Record, len(raw))
	for i, r := range raw {
		out[i] = BasicRecord{Key: r.Name, Group: r.Group, Gold: r.Gold}
	}
	return out
}

// RecordsFromDataset flattens a bibliography dataset into pipeline
// records: one record per author reference, grouped by paper and labeled
// with the ground truth (when present).
func RecordsFromDataset(d *match.Dataset) []Record {
	return recordsFromBib(bib.ToRecords(d))
}

// ReadRecords parses a raw records TSV (as written by WriteRecords or
// `emgen`): a `# records <name>` header followed by
// `<group>\t<gold>\t<name>` lines, -1 meaning ungrouped/unlabeled.
func ReadRecords(r io.Reader) (name string, records []Record, err error) {
	name, raw, err := bib.ReadRecords(r)
	if err != nil {
		return "", nil, err
	}
	return name, recordsFromBib(raw), nil
}

// WriteRecords serializes records in the TSV format ReadRecords parses.
// Records without group/label information are written as -1.
func WriteRecords(w io.Writer, name string, records []Record) error {
	raw, _ := toBibRecords(records)
	return bib.WriteRecords(w, name, raw)
}

// GenerateRecords synthesizes a corpus of the given kind (see
// GenerateDataset) and returns it in raw record form — the natural input
// of the Pipeline. Generation is deterministic in seed.
func GenerateRecords(kind DatasetKind, scale float64, seed int64) ([]Record, error) {
	if kind == People {
		if err := datagen.ValidateScale(scale); err != nil {
			return nil, fmt.Errorf("cem: %w", err)
		}
		raw, err := datagen.GeneratePeople(datagen.PeopleLike(scale, seed))
		if err != nil {
			return nil, err
		}
		return recordsFromBib(raw), nil
	}
	cfg, err := datagenConfig(kind, scale, seed)
	if err != nil {
		return nil, err
	}
	raw, err := datagen.GenerateRecords(cfg)
	if err != nil {
		return nil, err
	}
	return recordsFromBib(raw), nil
}

// toBibRecords lowers public records into the internal flat form,
// reporting whether every record carries a gold label.
func toBibRecords(records []Record) (recs []bib.Record, labeled bool) {
	recs = make([]bib.Record, len(records))
	labeled = true
	for i, r := range records {
		br := bib.Record{Name: r.RecordKey(), Group: -1, Gold: -1}
		if g, ok := r.(Grouped); ok {
			br.Group = g.RecordGroup()
		}
		if l, ok := r.(Labeled); ok {
			br.Gold = l.RecordGold()
		}
		if br.Gold < 0 {
			labeled = false
		}
		recs[i] = br
	}
	return recs, labeled
}
