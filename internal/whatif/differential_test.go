package whatif

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
)

// randomOps builds a batch of 1–6 scenario ops that is guaranteed to apply
// cleanly, by trial-applying each candidate op to a scratch overlay. The
// scratch overlay evolves exactly as Evaluate's internal overlay will, so
// node IDs created mid-batch are referenceable by later ops.
func randomOps(rng *rand.Rand, base pg.View) []Op {
	scratch := pg.NewOverlay(base)
	var ops []Op
	want := 1 + rng.Intn(6)
	for attempts := 0; len(ops) < want && attempts < 50; attempts++ {
		var op Op
		switch rng.Intn(5) {
		case 0:
			label := "Company"
			if rng.Intn(4) == 0 {
				label = "Person"
			}
			op = Op{Op: "addNode", Label: label, Name: fmt.Sprintf("wi%d", len(ops))}
		case 1:
			nodes := scratch.Nodes()
			companies := scratch.NodesWithLabel(pg.LabelCompany)
			if len(nodes) == 0 || len(companies) == 0 {
				continue
			}
			op = Op{
				Op:   "addShare",
				From: nodes[rng.Intn(len(nodes))],
				To:   companies[rng.Intn(len(companies))],
				W:    0.05 + 0.9*rng.Float64(),
			}
		case 2:
			shares := scratch.EdgesWithLabel(pg.LabelShareholding)
			if len(shares) == 0 {
				continue
			}
			op = Op{Op: "setShare", Edge: shares[rng.Intn(len(shares))], W: 0.05 + 0.9*rng.Float64()}
		case 3:
			edges := scratch.Edges()
			if len(edges) == 0 {
				continue
			}
			op = Op{Op: "removeEdge", Edge: edges[rng.Intn(len(edges))]}
		case 4:
			nodes := scratch.Nodes()
			if len(nodes) < 4 {
				continue
			}
			op = Op{Op: "removeNode", Node: nodes[rng.Intn(len(nodes))]}
		}
		if _, _, err := Apply(scratch, []Op{op}); err != nil {
			continue
		}
		ops = append(ops, op)
	}
	return ops
}

func sortedPairs(m map[Pair]bool) []Pair {
	out := make([]Pair, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sortPairs(out)
	return out
}

func diffPairSets(t *testing.T, what string, got, want map[Pair]bool) {
	t.Helper()
	if len(got) == len(want) {
		same := true
		for p := range want {
			if !got[p] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	t.Errorf("%s mismatch:\n  got  %v\n  want %v", what, sortedPairs(got), sortedPairs(want))
}

// TestDifferentialWhatIf is the ground-truth harness: across 100+ randomized
// generated graphs and random scenario batches, the scoped evaluation, the
// unscoped evaluation and the brute-force oracle — flatten the overlay into
// a standalone graph and re-run the full chase — must agree fact-for-fact on
// both the control and the close-link relation.
//
// Three-way agreement separates failure modes: scoped != unscoped blames the
// affected-cone scoping or the accown seeding; unscoped != oracle blames the
// overlay view itself (a read accessor lying about the composite graph).
//
// After the 110 small cases come a handful of Italian graphs of 300–1,000
// companies, where long ownership chains and share cycles make the accown
// fixpoint and the scoped cones non-trivial.
func TestDifferentialWhatIf(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is not short")
	}
	thresholds := []float64{0.1, 0.2, 0.3}

	const cases = 110
	ran := 0
	for i := 0; i < cases; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		var base *pg.Graph
		if i%5 == 4 {
			// Every fifth case: an Italian-style graph, for person-owner and
			// family-structure coverage.
			base = graphgen.NewItalian(graphgen.ItalianConfig{
				Companies: 10 + rng.Intn(10),
				Persons:   6 + rng.Intn(6),
				Seed:      int64(i),
			}).Graph
		} else {
			base = graphgen.Barabasi(8+rng.Intn(16), 1+rng.Intn(3), int64(i))
		}
		threshold := thresholds[i%len(thresholds)]
		ops := randomOps(rng, base)
		if len(ops) == 0 {
			continue
		}
		ran++
		differentialCase(t, fmt.Sprintf("case %d", i), base, threshold, ops)
	}
	if ran < 100 {
		t.Fatalf("only %d effective cases ran, want >= 100", ran)
	}

	for i, n := range []int{300, 450, 600, 800, 1000} {
		rng := rand.New(rand.NewSource(int64(5000 + i)))
		base := graphgen.NewItalian(graphgen.ItalianConfig{Companies: n, Persons: n / 2, Seed: int64(7 + i)}).Graph
		ops := randomOps(rng, base)
		if len(ops) == 0 {
			t.Fatalf("large case %d: no applicable ops", i)
		}
		differentialCase(t, fmt.Sprintf("large case %d", i), base, thresholds[i%len(thresholds)], ops)
	}
}

// differentialCase runs one scenario three ways — scoped, unscoped, and the
// flatten-and-re-chase oracle — and fails the test on any disagreement.
func differentialCase(t *testing.T, label string, base *pg.Graph, threshold float64, ops []Op) {
	t.Helper()
	ctx := context.Background()
	name := fmt.Sprintf("%s (t=%v, %d ops, %d nodes)", label, threshold, len(ops), base.NumNodes())

	bl, err := ComputeBaseline(ctx, base, threshold)
	if err != nil {
		t.Fatalf("%s: baseline: %v", name, err)
	}
	scoped, err := Evaluate(ctx, base, bl, ops, Options{Threshold: threshold})
	if err != nil {
		t.Fatalf("%s: scoped: %v", name, err)
	}
	unscoped, err := Evaluate(ctx, base, bl, ops, Options{Threshold: threshold, NoScope: true})
	if err != nil {
		t.Fatalf("%s: unscoped: %v", name, err)
	}

	// Oracle: deep-copy the composite into a standalone graph and chase
	// it from scratch.
	o := pg.NewOverlay(base)
	if _, _, err := Apply(o, ops); err != nil {
		t.Fatalf("%s: re-apply: %v", name, err)
	}
	flat, err := pg.Flatten(o)
	if err != nil {
		t.Fatalf("%s: flatten: %v", name, err)
	}
	oracle, err := ComputeBaseline(ctx, flat, threshold)
	if err != nil {
		t.Fatalf("%s: oracle chase: %v", name, err)
	}

	diffPairSets(t, name+": scoped vs unscoped control", scoped.Control, unscoped.Control)
	diffPairSets(t, name+": scoped vs unscoped closelink", scoped.CloseLink, unscoped.CloseLink)
	diffPairSets(t, name+": unscoped vs oracle control", unscoped.Control, oracle.Control)
	diffPairSets(t, name+": unscoped vs oracle closelink", unscoped.CloseLink, oracle.CloseLink)
	diffPairSets(t, name+": scoped vs oracle control", scoped.Control, oracle.Control)
	diffPairSets(t, name+": scoped vs oracle closelink", scoped.CloseLink, oracle.CloseLink)

	// The reported diffs must be exactly the set differences.
	checkDiff(t, name+": control diff", bl.Control, scoped.Control, scoped.ControlGained, scoped.ControlLost)
	checkDiff(t, name+": closelink diff", bl.CloseLink, scoped.CloseLink, scoped.CloseLinkGained, scoped.CloseLinkLost)

	if scoped.AffectedSources > unscoped.AffectedSources {
		t.Errorf("%s: scoped touched %d sources, more than unscoped's %d",
			name, scoped.AffectedSources, unscoped.AffectedSources)
	}
	if t.Failed() {
		t.Fatalf("%s: stopping after first divergence", name)
	}
}

func checkDiff(t *testing.T, what string, before, after map[Pair]bool, gained, lost []Pair) {
	t.Helper()
	wantGained, wantLost := diffSets(before, after)
	if !pairSlicesEqual(gained, wantGained) {
		t.Errorf("%s: gained = %v, want %v", what, gained, wantGained)
	}
	if !pairSlicesEqual(lost, wantLost) {
		t.Errorf("%s: lost = %v, want %v", what, lost, wantLost)
	}
	if !sort.SliceIsSorted(gained, func(i, j int) bool {
		return gained[i][0] < gained[j][0] || (gained[i][0] == gained[j][0] && gained[i][1] < gained[j][1])
	}) {
		t.Errorf("%s: gained not sorted: %v", what, gained)
	}
}

func pairSlicesEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
