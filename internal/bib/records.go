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

	"repro/internal/flat"
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
// names are parsed and the pairs d scored stay scored. d is read and
// never written, not even by its lazy Names or Coauthor, so any number of
// goroutines may extend one dataset at once.
//
// What it builds is sized from counts of recs: the references, the name
// dictionary, and the papers recs open with their reference lists, laid
// out in one counting pass. A synthesized paper has no title.
func (d *Dataset) Extend(name string, recs []Record) (*Dataset, error) {
	if d.groups == nil {
		return nil, ErrNotFromRecords
	}
	e := &Dataset{
		Name:   name,
		Refs:   append(make([]Reference, 0, len(d.Refs)+len(recs)), d.Refs...),
		groups: maps.Clone(d.groups),
	}
	// Surface strings repeat heavily (the same rendered author name
	// appears on many references); the reference table keeps the first
	// record's string of each distinct name, so a large streamed corpus's
	// references do not hold every repeated name.
	names := flat.NewStrings(len(recs))
	nameOf := func(r int32) string { return e.Refs[r].Name }
	pids := make([]PaperID, len(recs))
	opened := 0 // papers recs open
	for i, r := range recs {
		rid := RefID(len(e.Refs))
		if r.Name == "" {
			return nil, fmt.Errorf("bib: record %d has an empty name", rid)
		}
		pid, ok := e.groups[r.Group]
		if !ok {
			pid = PaperID(len(d.Papers) + opened)
			opened++
			if r.Group >= 0 {
				e.groups[r.Group] = pid
			}
		}
		pids[i] = pid
		ref := Reference{Name: r.Name, Paper: pid, True: max(r.Gold, -1)}
		if first, ok := names.ID(r.Name, rid, nameOf); ok {
			ref.Name = e.Refs[first].Name
		}
		e.Refs = append(e.Refs, ref)
	}
	e.Papers = append(make([]Paper, 0, len(d.Papers)+opened), d.Papers...)
	e.Papers = e.Papers[:len(d.Papers)+opened]
	base := RefID(len(d.Refs))
	off, refs := flat.Bucket(opened, func(yield func(int32, RefID)) {
		for i, pid := range pids {
			if int(pid) >= len(d.Papers) {
				yield(pid-PaperID(len(d.Papers)), base+RefID(i))
			}
		}
	})
	for k := range opened {
		e.Papers[len(d.Papers)+k].Refs = refs[off[k]:off[k+1]:off[k+1]]
	}
	for i, pid := range pids {
		if int(pid) < len(d.Papers) {
			// A paper of d lends its list: copy it before it grows.
			e.Papers[pid].Refs = append(slices.Clip(e.Papers[pid].Refs), base+RefID(i))
		}
	}
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("bib: records produced an invalid dataset: %w", err)
	}
	if t := d.names; t != nil && len(t.class) == len(d.Refs) {
		e.names = t.extend(e.Refs[len(d.Refs):])
	}
	return e, nil
}

// The on-disk record format — the one corpus format the commands read and
// write — is line-oriented TSV:
//
//	# records <name>
//	<group>\t<gold>\t<name>
//
// Group and gold may be -1 (ungrouped / unlabeled). Names are the final
// field and may contain spaces. Other lines starting with # and blank
// lines are skipped.

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

// WriteRecords serializes records to w in the TSV format above. A corpus
// or record name CheckName refuses fails the write.
func WriteRecords(w io.Writer, name string, recs []Record) error {
	if err := CheckName(name); err != nil {
		return fmt.Errorf("bib: corpus name: %w", err)
	}
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
		rec, err := parseRecord(text)
		if err != nil {
			// A read that fails mid-line hands the scanner's last token the
			// partial line: the read error, not the cut line, is the cause.
			if rerr := sc.Err(); rerr != nil {
				return "", nil, fmt.Errorf("bib: reading records: %w", rerr)
			}
			return "", nil, fmt.Errorf("bib: line %d: %w", line, err)
		}
		rec.Name = names.Intern(rec.Name)
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return "", nil, fmt.Errorf("bib: reading records: %w", err)
	}
	if len(recs) == 0 {
		return "", nil, fmt.Errorf("bib: no records in input")
	}
	return name, recs, nil
}

// parseRecord parses one record line: group, gold and name, tab-separated.
func parseRecord(text string) (Record, error) {
	fields := strings.SplitN(text, "\t", 3)
	if len(fields) != 3 {
		return Record{}, fmt.Errorf("record wants 3 fields, got %d", len(fields))
	}
	group, err := strconv.ParseInt(fields[0], 10, 32)
	if err != nil {
		return Record{}, fmt.Errorf("bad group: %v", err)
	}
	gold, err := strconv.ParseInt(fields[1], 10, 32)
	if err != nil {
		return Record{}, fmt.Errorf("bad gold id: %v", err)
	}
	return Record{Name: fields[2], Group: int32(group), Gold: int32(gold)}, nil
}
