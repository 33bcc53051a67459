package whatif

import (
	"context"
	"testing"

	"vadalink/internal/closelink"
	"vadalink/internal/control"
	"vadalink/internal/datalog"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
)

// italian2k is the fixed-seed 2,000-company graph of the scale tests (the
// benchmark ladder's shape: Persons = n/2, graph seed 7).
func italian2k() *pg.Graph {
	return graphgen.NewItalian(graphgen.ItalianConfig{Persons: 1000, Companies: 2000, Seed: 7}).Graph
}

// TestBaselineMatchesImperativeSolvers cross-validates the full chase at
// scale: the control and close-link relations of ComputeBaseline must equal
// the imperative fixpoint (control.AllPairs) and the imperative close-link
// solver (closelink.CloseLinks) pair for pair.
func TestBaselineMatchesImperativeSolvers(t *testing.T) {
	g := italian2k()
	bl, err := ComputeBaseline(context.Background(), g, 0.2)
	if err != nil {
		t.Fatal(err)
	}

	want := map[Pair]bool{}
	for _, p := range control.AllPairs(g) {
		want[Pair{p.From, p.To}] = true
	}
	if len(want) != 336 {
		t.Errorf("control.AllPairs found %d pairs, want 336 (the fixed workload changed)", len(want))
	}
	diffPairSets(t, "baseline vs control.AllPairs", bl.Control, want)

	want = map[Pair]bool{}
	for _, l := range closelink.CloseLinks(g, 0.2, closelink.Options{}) {
		want[canonical(l.Pair.A, l.Pair.B)] = true
	}
	if len(want) != 885 {
		t.Errorf("closelink.CloseLinks found %d links, want 885 (the fixed workload changed)", len(want))
	}
	diffPairSets(t, "baseline vs closelink.CloseLinks", bl.CloseLink, want)
}

// TestBaselineJoinProbesBounded guards the semi-naive join plans: the
// baseline program at 2,000 companies must find its join partners through
// the indexes, probing at most 4 candidate facts per match and 500,000 in
// all. Evaluating a delta at its textual position instead of first costs
// about 30 million probes here. Two workers pin the count on any machine.
func TestBaselineJoinProbesBounded(t *testing.T) {
	prog, err := datalog.Parse(Programs(0.2))
	if err != nil {
		t.Fatal(err)
	}
	e, err := datalog.NewEngine(prog, withWhatIfDefaults([]datalog.Option{datalog.WithStats(), datalog.WithParallel(2)})...)
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(relstore.CompanyGraphFacts(italian2k()))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Matches == 0 || st.Probes > 4*st.Matches || st.Probes > 500_000 {
		for _, r := range st.Rules {
			t.Logf("probes %d, matches %d: %s", r.Probes, r.Matches, r.Rule)
		}
		t.Fatalf("probes = %d for %d matches, want <= 4x matches and <= 500000", st.Probes, st.Matches)
	}
}
