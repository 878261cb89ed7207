// Package bib defines the bibliographic entity-matching data model of the
// paper's running example (Example 1): papers, author references, the
// Authored / Coauthor / Cites relations, and ground truth mapping each
// author reference to its real-world author.
//
// The entities being matched in the experiments — as in the paper's §6 —
// are the *author references*: each occurrence of an author name on a
// paper is its own entity, and the matcher decides which references denote
// the same real author.
package bib

import (
	"fmt"

	"repro/internal/graph"
)

// RefID identifies an author reference (dense, 0-based).
type RefID = int32

// PaperID identifies a paper (dense, 0-based).
type PaperID = int32

// AuthorID identifies a ground-truth real-world author.
type AuthorID = int32

// Reference is one occurrence of an author name on a paper.
type Reference struct {
	Name  string   // the name string as it appears in this source
	Paper PaperID  // the paper this reference occurs on
	True  AuthorID // ground-truth author (known by construction)
}

// Paper is a publication carrying a list of author references.
type Paper struct {
	Title string
	Year  int
	Refs  []RefID   // author references appearing on this paper
	Cites []PaperID // papers cited by this paper
}

// Dataset is a full bibliography instance: the entity set E plus the
// relation set R = {Authored, Coauthor, Cites} of Example 1.
type Dataset struct {
	Name   string
	Refs   []Reference
	Papers []Paper

	// Derived state, built on first use and dropped by InvalidateCoauthor.
	coauthor *graph.Graph      // the Coauthor relation over references
	names    *NameTable        // the references quotiented by parsed name
	groups   map[int32]PaperID // record group -> paper; nil unless built from records
}

// NumRefs returns the number of author-reference entities.
func (d *Dataset) NumRefs() int { return len(d.Refs) }

// NumPapers returns the number of papers.
func (d *Dataset) NumPapers() int { return len(d.Papers) }

// NumAuthors returns the number of distinct ground-truth authors.
func (d *Dataset) NumAuthors() int {
	seen := map[AuthorID]bool{}
	for i := range d.Refs {
		seen[d.Refs[i].True] = true
	}
	return len(seen)
}

// Coauthor returns (building on first use) the Coauthor relation as an
// undirected graph over references: two references are coauthors when
// they appear on the same paper. This is the self-join of Authored that
// Example 1 describes.
//
// Coauthor and Names build lazily and without synchronization: the first
// call of either must not race with any other use of the dataset. The
// blocking stage makes both first calls on the goroutine that runs it,
// before the round engine fans the dataset out to its workers. Concurrent
// Pipeline.Update forks each get their own Dataset from Extend, which reads
// the prior's and never builds on it: it calls neither method, and inherits
// a name table only when one is already built. Once built the graph is
// read-only and safe to share; the name table is not (see Names).
func (d *Dataset) Coauthor() *graph.Graph {
	if d.coauthor != nil {
		return d.coauthor
	}
	b := graph.NewBuilder(len(d.Refs))
	for p := range d.Papers {
		refs := d.Papers[p].Refs
		for i := 0; i < len(refs); i++ {
			for j := i + 1; j < len(refs); j++ {
				b.AddEdge(refs[i], refs[j])
			}
		}
	}
	d.coauthor = b.Build()
	return d.coauthor
}

// Names returns (building on first use) the dataset's name table: every
// reference parsed once, references of one parsed name sharing a class, and
// the NameLevel of two classes scored once however many stages of a run ask
// for it — cover construction and candidate enumeration read the same
// table, so the second finds the pairs of the first already scored. It is a
// quotient of Refs the way Coauthor is a self-join of Authored.
//
// A table that no longer has one entry per reference (Refs grew or shrank
// since it was built) is rebuilt; after renaming a reference in place, call
// InvalidateCoauthor. Extend hands its result a continuation of a built,
// current table. Lookups fill the table's level memos, so unlike the
// Coauthor graph it stays single-goroutine after it is built: the blocking
// stage, its only writer, is serial wherever it compares names, and Extend
// reads it only once that stage is done.
func (d *Dataset) Names() *NameTable {
	if d.names == nil || len(d.names.class) != len(d.Refs) {
		d.names = newNameTable(d.Refs)
	}
	return d.names
}

// InvalidateCoauthor drops every cached derivation of the dataset — the
// Coauthor graph, the name table and the record groups Extend continues;
// call after mutating Papers or Refs.
func (d *Dataset) InvalidateCoauthor() { d.coauthor, d.names, d.groups = nil, nil, nil }

// TruePairs returns the ground-truth match set: every unordered pair of
// references with the same true author. References with an unknown label
// (True < 0) never pair with anything. Cost is quadratic per author
// cluster, which matches real label distributions (small clusters).
func (d *Dataset) TruePairs() map[[2]RefID]bool {
	byAuthor := map[AuthorID][]RefID{}
	for i := range d.Refs {
		if d.Refs[i].True < 0 {
			continue
		}
		byAuthor[d.Refs[i].True] = append(byAuthor[d.Refs[i].True], RefID(i))
	}
	out := map[[2]RefID]bool{}
	for _, refs := range byAuthor {
		for i := 0; i < len(refs); i++ {
			for j := i + 1; j < len(refs); j++ {
				a, b := refs[i], refs[j]
				if a > b {
					a, b = b, a
				}
				out[[2]RefID{a, b}] = true
			}
		}
	}
	return out
}

// IsTrueMatch reports whether two references denote the same real author.
func (d *Dataset) IsTrueMatch(a, b RefID) bool {
	return d.Refs[a].True == d.Refs[b].True
}

// Validate checks internal consistency: every paper's references point
// back at the paper, every reference's paper lists it, and all ids are in
// range. It returns the first problem found.
func (d *Dataset) Validate() error {
	for p := range d.Papers {
		for _, r := range d.Papers[p].Refs {
			if r < 0 || int(r) >= len(d.Refs) {
				return fmt.Errorf("bib: paper %d has out-of-range ref %d", p, r)
			}
			if d.Refs[r].Paper != PaperID(p) {
				return fmt.Errorf("bib: ref %d on paper %d claims paper %d", r, p, d.Refs[r].Paper)
			}
		}
		for _, c := range d.Papers[p].Cites {
			if c < 0 || int(c) >= len(d.Papers) {
				return fmt.Errorf("bib: paper %d cites out-of-range paper %d", p, c)
			}
		}
	}
	listed := make([]bool, len(d.Refs))
	for p := range d.Papers {
		for _, r := range d.Papers[p].Refs {
			listed[r] = true
		}
	}
	for r := range d.Refs {
		if !listed[r] {
			return fmt.Errorf("bib: ref %d not listed on its paper", r)
		}
	}
	return nil
}

// Stats summarizes a dataset for logging and the EXPERIMENTS report.
type Stats struct {
	Refs, Papers, Authors int
	CoauthorEdges         int
	MaxClusterSize        int
	TrueMatchPairs        int
}

// ComputeStats gathers summary statistics.
func (d *Dataset) ComputeStats() Stats {
	s := Stats{
		Refs:    len(d.Refs),
		Papers:  len(d.Papers),
		Authors: d.NumAuthors(),
	}
	s.CoauthorEdges = d.Coauthor().Edges()
	sizes := map[AuthorID]int{}
	for i := range d.Refs {
		sizes[d.Refs[i].True]++
	}
	for _, n := range sizes {
		if n > s.MaxClusterSize {
			s.MaxClusterSize = n
		}
		s.TrueMatchPairs += n * (n - 1) / 2
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("refs=%d papers=%d authors=%d coauthorEdges=%d maxCluster=%d truePairs=%d",
		s.Refs, s.Papers, s.Authors, s.CoauthorEdges, s.MaxClusterSize, s.TrueMatchPairs)
}
