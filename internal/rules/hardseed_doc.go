package rules

// Hard seeds — the Dedupalog rule "equals(x, y) ⇐ AuthorEQ(x, y)" of
// Appendix A and its negative twin — are evidence that is known when the
// program is ground, so they are ground with it: the seed column of
// Ground (Candidate.Seed for New) marks a candidate hard-equal (SeedEqual)
// or hard-distinct (SeedDistinct), and
// Match merges the mark with the caller's evidence bit by bit. A
// hard-equal candidate is exactly a pair in the V+ slot of Definition 1
// on every call: it supports other pairs wherever it lies and is echoed
// when in scope. A hard-distinct candidate is exactly a pair in the
// Negative slot: it never fires and is never echoed, and that wins over
// any positive evidence or seed on the same pair. rules/lang computes the
// marks from a program's "equal when" / "distinct when" clauses.
//
// Equalities known only at run time stay what they always were:
// core.Config's initial evidence, or the pos argument of Matcher.Match;
// run-time inequalities are the Negative slot. Either way evidence is
// read on candidate pairs only (the core.Matcher evidence contract): a
// seed exists on candidates by construction, and a pos/neg pair that is
// no candidate of this matcher is ignored.
