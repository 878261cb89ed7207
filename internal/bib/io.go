package bib

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The on-disk format is a simple line-oriented TSV that the cmd/ tools
// read and write:
//
//	# dataset <name>
//	P <title> <year> <cite,cite,...>        (papers, in id order)
//	R <paperID> <trueAuthorID> <name>       (references, in id order)
//
// Citations may be empty ("-"). Names may contain spaces; they are the
// final field on R lines and titles are tab-delimited on P lines.

// Write serializes the dataset to w in the TSV format above.
func Write(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# dataset %s\n", d.Name); err != nil {
		return err
	}
	for i := range d.Papers {
		p := &d.Papers[i]
		cites := "-"
		if len(p.Cites) > 0 {
			parts := make([]string, len(p.Cites))
			for j, c := range p.Cites {
				parts[j] = strconv.Itoa(int(c))
			}
			cites = strings.Join(parts, ",")
		}
		if _, err := fmt.Fprintf(bw, "P\t%s\t%d\t%s\n", p.Title, p.Year, cites); err != nil {
			return err
		}
	}
	for i := range d.Refs {
		r := &d.Refs[i]
		if _, err := fmt.Fprintf(bw, "R\t%d\t%d\t%s\n", r.Paper, r.True, r.Name); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a dataset in the format produced by Write.
func Read(r io.Reader) (*Dataset, error) {
	d := &Dataset{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "# dataset ") {
			d.Name = strings.TrimPrefix(text, "# dataset ")
			continue
		}
		if strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		switch fields[0] {
		case "P":
			if len(fields) != 4 {
				return nil, fmt.Errorf("bib: line %d: P wants 4 fields, got %d", line, len(fields))
			}
			year, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("bib: line %d: bad year: %v", line, err)
			}
			p := Paper{Title: fields[1], Year: year}
			if fields[3] != "-" {
				for _, part := range strings.Split(fields[3], ",") {
					c, err := strconv.ParseInt(part, 10, 32)
					if err != nil {
						return nil, fmt.Errorf("bib: line %d: bad cite: %v", line, err)
					}
					p.Cites = append(p.Cites, PaperID(c))
				}
			}
			d.Papers = append(d.Papers, p)
		case "R":
			if len(fields) != 4 {
				return nil, fmt.Errorf("bib: line %d: R wants 4 fields, got %d", line, len(fields))
			}
			paper, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("bib: line %d: bad paper id: %v", line, err)
			}
			truth, err := strconv.ParseInt(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bib: line %d: bad author id: %v", line, err)
			}
			if paper < 0 || paper >= len(d.Papers) {
				return nil, fmt.Errorf("bib: line %d: reference to unknown paper %d", line, paper)
			}
			id := RefID(len(d.Refs))
			d.Refs = append(d.Refs, Reference{Name: fields[3], Paper: PaperID(paper), True: AuthorID(truth)})
			d.Papers[paper].Refs = append(d.Papers[paper].Refs, id)
		default:
			return nil, fmt.Errorf("bib: line %d: unknown record type %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
