package bib

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"

	"repro/internal/store"
)

// Record is the flat, source-agnostic ingestion unit of the pipeline: one
// string to block and match on, an optional relational group (records of
// the same group are treated as coauthors — the Authored self-join of
// Example 1), and an optional gold entity label for evaluation.
type Record struct {
	// Name is the surface string the blocker and matchers operate on.
	Name string
	// Group links records relationally: all records sharing a group id
	// >= 0 land on one synthesized paper (they become coauthors). A
	// negative group means "ungrouped"; the record gets a singleton paper.
	Group int32
	// Gold is the ground-truth entity id, or a negative value when
	// unknown. Evaluation is only meaningful when every record is
	// labeled.
	Gold int32
}

// ToRecords flattens a dataset into its record list: one record per
// author reference, grouped by paper and labeled with the ground truth.
func ToRecords(d *Dataset) []Record {
	out := make([]Record, len(d.Refs))
	for i := range d.Refs {
		out[i] = Record{Name: d.Refs[i].Name, Group: d.Refs[i].Paper, Gold: d.Refs[i].True}
	}
	return out
}

// DatasetFromRecords synthesizes a bibliography dataset from raw records:
// every distinct non-negative group becomes one paper (in first-appearance
// order), each ungrouped record gets a singleton paper, and reference ids
// follow record order. The result passes Validate and is deterministic in
// the input order.
func DatasetFromRecords(name string, recs []Record) (*Dataset, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("bib: no records")
	}
	return (&Dataset{groups: map[int32]PaperID{}}).Extend(name, recs)
}

// ErrNotFromRecords is returned by Extend for a dataset DatasetFromRecords
// did not build.
var ErrNotFromRecords = errors.New("bib: dataset was not built from records")

// Extend returns what DatasetFromRecords(name, d's records followed by recs)
// returns, lowering only recs: d's references and papers are copied, and a
// built and current name table of d is continued (NameTable), so only recs'
// names are parsed and the class pairs d scored stay scored. d is read and
// never written, not even by its lazy Names or Coauthor, so any number of
// goroutines may extend one dataset at once.
func (d *Dataset) Extend(name string, recs []Record) (*Dataset, error) {
	if d.groups == nil {
		return nil, ErrNotFromRecords
	}
	e := &Dataset{
		Name:   name,
		Refs:   append(make([]Reference, 0, len(d.Refs)+len(recs)), d.Refs...),
		Papers: slices.Clone(d.Papers),
		groups: maps.Clone(d.groups),
	}
	// Surface strings repeat heavily (the same rendered author name
	// appears on many references); interning stores each distinct one
	// once, which is what keeps a large streamed corpus's reference
	// table from duplicating every repeated name.
	names := store.NewInterner()
	for _, r := range recs {
		rid := RefID(len(e.Refs))
		if r.Name == "" {
			return nil, fmt.Errorf("bib: record %d has an empty name", rid)
		}
		pid, ok := e.groups[r.Group]
		if !ok {
			pid = PaperID(len(e.Papers))
			if r.Group < 0 {
				e.Papers = append(e.Papers, Paper{Title: fmt.Sprintf("record-%d", rid)})
			} else {
				e.Papers = append(e.Papers, Paper{Title: fmt.Sprintf("group-%d", r.Group)})
				e.groups[r.Group] = pid
			}
		}
		e.Refs = append(e.Refs, Reference{Name: names.Intern(r.Name), Paper: pid, True: max(r.Gold, -1)})
		// A paper of d lends its list: copy it before it grows.
		refs := e.Papers[pid].Refs
		if int(pid) < len(d.Papers) {
			refs = slices.Clip(refs)
		}
		e.Papers[pid].Refs = append(refs, rid)
	}
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("bib: records produced an invalid dataset: %w", err)
	}
	if t := d.names; t != nil && len(t.class) == len(d.Refs) {
		e.names = t.extend(e.Refs[len(d.Refs):])
	}
	return e, nil
}

// The on-disk record format is line-oriented TSV, mirroring the dataset
// format of io.go:
//
//	# records <name>
//	<group>\t<gold>\t<name>
//
// Group and gold may be -1 (ungrouped / unlabeled). Names are the final
// field and may contain spaces.

// maxLine bounds one line of the format, its newline included: ReadRecords
// refuses a longer one.
const maxLine = 1 << 20

// maxName is the longest name a record line holds whatever its group and
// gold ids: the line is two int32 fields, two tabs, the name and a newline.
const maxName = maxLine - len("-2147483648\t-2147483648\t\n")

// CheckName reports why a record name cannot be written in the format so
// that ReadRecords reads it back: it holds a line break, or it is longer
// than maxName. WriteRecords refuses such names rather than write output
// that is corrupt or unreadable.
func CheckName(name string) error {
	if strings.ContainsAny(name, "\n\r") {
		return errors.New("name contains a line break")
	}
	if len(name) > maxName {
		return fmt.Errorf("name is %d bytes, over the %d a record line holds", len(name), maxName)
	}
	return nil
}

// WriteRecords serializes records to w in the TSV format above. A name
// CheckName refuses fails the write.
func WriteRecords(w io.Writer, name string, recs []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# records %s\n", name); err != nil {
		return err
	}
	for i := range recs {
		r := &recs[i]
		if err := CheckName(r.Name); err != nil {
			return fmt.Errorf("bib: record %d: %w", i, err)
		}
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%s\n", r.Group, r.Gold, r.Name); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadRecords parses records in the format produced by WriteRecords.
func ReadRecords(r io.Reader) (name string, recs []Record, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, maxLine), maxLine)
	// Interning collapses repeated surface names to one string each as
	// the stream parses (and detaches kept names from whole-line backing
	// arrays).
	names := store.NewInterner()
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "# records ") {
			name = strings.TrimPrefix(text, "# records ")
			continue
		}
		if strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.SplitN(text, "\t", 3)
		if len(fields) != 3 {
			return "", nil, fmt.Errorf("bib: line %d: record wants 3 fields, got %d", line, len(fields))
		}
		group, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return "", nil, fmt.Errorf("bib: line %d: bad group: %v", line, err)
		}
		gold, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return "", nil, fmt.Errorf("bib: line %d: bad gold id: %v", line, err)
		}
		recs = append(recs, Record{Name: names.Intern(fields[2]), Group: int32(group), Gold: int32(gold)})
	}
	if err := sc.Err(); err != nil {
		return "", nil, fmt.Errorf("bib: reading records: %w", err)
	}
	if len(recs) == 0 {
		return "", nil, fmt.Errorf("bib: no records in input")
	}
	return name, recs, nil
}
