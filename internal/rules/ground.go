package rules

import "slices"

// ground materializes, once per matcher and on its first use (every
// pipeline grounds a rules matcher through New; only the ones that run
// pay for this), the static side of the rule bodies' join
// similar ⋈ coauthor ⋈ equals. For a candidate (a, b) that needs k > 0
// supports and carries no seed:
//
//   - a coauthor c of both a and b is the pair (c, c), matched by
//     reflexivity under any evidence: the |N(a) ∩ N(b)| shared coauthors
//     come off k for good, by a merge over the two sorted coauthor lists;
//   - every other support is a distinct unordered pair {c1, c2} with
//     c1 ∈ N(a), c2 ∈ N(b) that is equals at call time — under the
//     evidence contract, a candidate. They are found by a stamp join:
//     mark N(a) and N(b), then walk the candidate ranges first[c].. of
//     the coauthors themselves, never the N(a) × N(b) grid.
//
// Seeded candidates are decided before any rule runs and get no support
// list.
func (m *Matcher) ground() { m.groundOnce.Do(m.groundSupports) }

func (m *Matcher) groundSupports() {
	m.supOff = make([]int32, len(m.pairs)+1)
	// inA[e] == id+1 marks e ∈ N(a) for the candidate being ground; a
	// stamp per candidate saves clearing the marks.
	inA := make([]int32, len(m.first)-1)
	inB := make([]int32, len(m.first)-1)
	var found []int32
	for id, p := range m.pairs {
		m.supOff[id] = int32(len(m.sup))
		k := m.want[id]
		if k <= 0 || m.seed[id] != 0 {
			continue
		}
		na, nb := m.co.Neighbors(p.A), m.co.Neighbors(p.B)
		if k -= sharedUpTo(na, nb, k); k == 0 {
			m.want[id] = 0
			continue
		}
		m.want[id] = k
		stamp := int32(id) + 1
		for _, c := range na {
			inA[c] = stamp
		}
		for _, c := range nb {
			inB[c] = stamp
		}
		// {c1, c2} is the candidate (c1, c2) or (c2, c1): the first
		// endpoint is a coauthor of one side, the second of the other.
		found = found[:0]
		join := func(firsts, second []int32) {
			for _, c := range firsts {
				for sid := m.first[c]; sid < m.first[c+1]; sid++ {
					if second[m.pairs[sid].B] == stamp {
						found = append(found, sid)
					}
				}
			}
		}
		join(na, inB)
		join(nb, inA)
		// A pair whose endpoints are coauthors of both sides is found from
		// each; the candidate itself (a and b can be coauthors) is no
		// support — it is not equals while it is being derived.
		slices.Sort(found)
		for i, sid := range found {
			if sid != int32(id) && (i == 0 || sid != found[i-1]) {
				m.sup = append(m.sup, sid)
			}
		}
	}
	m.supOff[len(m.pairs)] = int32(len(m.sup))
}

// sharedUpTo counts the common elements of two ascending lists, stopping
// at limit.
func sharedUpTo(a, b []int32, limit int32) int32 {
	var n int32
	for i, j := 0, 0; i < len(a) && j < len(b) && n < limit; {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
