package bib

import (
	"strings"
	"testing"

	"repro/internal/similarity"
)

// tiny returns a 3-paper, 6-reference dataset:
//
//	paper 0: refs 0 (author 0), 1 (author 1)
//	paper 1: refs 2 (author 0), 3 (author 2)
//	paper 2: refs 4 (author 1), 5 (author 2)   cites paper 0
func tiny() *Dataset {
	d := &Dataset{Name: "tiny"}
	d.Papers = []Paper{
		{Title: "p0", Year: 2001},
		{Title: "p1", Year: 2002},
		{Title: "p2", Year: 2003, Cites: []PaperID{0}},
	}
	add := func(paper PaperID, truth AuthorID, name string) {
		id := RefID(len(d.Refs))
		d.Refs = append(d.Refs, Reference{Name: name, Paper: paper, True: truth})
		d.Papers[paper].Refs = append(d.Papers[paper].Refs, id)
	}
	add(0, 0, "A. Smith")
	add(0, 1, "B. Jones")
	add(1, 0, "Alice Smith")
	add(1, 2, "C. Brown")
	add(2, 1, "Bob Jones")
	add(2, 2, "Carol Brown")
	return d
}

func TestValidate(t *testing.T) {
	d := tiny()
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	// Corrupt: reference points at wrong paper.
	d.Refs[0].Paper = 2
	if err := d.Validate(); err == nil {
		t.Error("corrupted dataset accepted")
	}
}

func TestCoauthor(t *testing.T) {
	d := tiny()
	g := d.Coauthor()
	if g.Edges() != 3 {
		t.Fatalf("coauthor edges = %d, want 3", g.Edges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) || !g.HasEdge(4, 5) {
		t.Error("expected coauthor edges missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("refs on different papers cannot be coauthors")
	}
	// Cached: same pointer on second call.
	if d.Coauthor() != g {
		t.Error("Coauthor graph must be cached")
	}
	names := d.Names()
	if got := names.RefLevel(0, 2); got == similarity.LevelNone {
		t.Fatalf("A. Smith / Alice Smith at level %d, want similar", got)
	}
	// Renamed in place: the cached table cannot tell, the invalidation must.
	d.Refs[2].Name = "Zelda Quux"
	if d.Names() != names {
		t.Error("name table must be cached")
	}
	d.InvalidateCoauthor()
	if d.Coauthor() == g {
		t.Error("InvalidateCoauthor must drop the cache")
	}
	if d.Names() == names {
		t.Error("InvalidateCoauthor must drop the name table with the graph")
	}
	if got := d.Names().RefLevel(0, 2); got != similarity.LevelNone {
		t.Errorf("A. Smith / Zelda Quux at level %d after invalidation, want none", got)
	}
	if got, want := d.Names().Normalized(2), "zelda quux"; got != want {
		t.Errorf("Normalized(2) = %q after invalidation, want %q", got, want)
	}
}

func TestTruePairs(t *testing.T) {
	d := tiny()
	tp := d.TruePairs()
	want := map[[2]RefID]bool{
		{0, 2}: true, // author 0
		{1, 4}: true, // author 1
		{3, 5}: true, // author 2
	}
	if len(tp) != len(want) {
		t.Fatalf("TruePairs = %v, want %v", tp, want)
	}
	for p := range want {
		if !tp[p] {
			t.Errorf("missing true pair %v", p)
		}
	}
	if !d.IsTrueMatch(0, 2) || d.IsTrueMatch(0, 1) {
		t.Error("IsTrueMatch wrong")
	}
}

func TestStats(t *testing.T) {
	d := tiny()
	s := d.ComputeStats()
	if s.Refs != 6 || s.Papers != 3 || s.Authors != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.TrueMatchPairs != 3 || s.MaxClusterSize != 2 {
		t.Errorf("pair stats = %+v", s)
	}
	if !strings.Contains(s.String(), "refs=6") {
		t.Errorf("Stats.String = %q", s.String())
	}
	if d.NumRefs() != 6 || d.NumPapers() != 3 || d.NumAuthors() != 3 {
		t.Error("counters wrong")
	}
}

func TestRefsByAuthor(t *testing.T) {
	d := tiny()
	groups := d.RefsByAuthor()
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	if g := groups[0]; len(g) != 2 || g[0] != 0 || g[1] != 2 {
		t.Errorf("author 0 group = %v", g)
	}
}
