package ivm

import (
	"context"
	"errors"
	"sort"
	"testing"

	"vadalink/internal/pg"
	"vadalink/internal/store"
	"vadalink/internal/whatif"
)

// driver wires a Maintainer onto a Versioned store exactly the way the
// serving layer does on every role: Init from the root version, the commit
// hook queues every journal, and reads drain the queue up to the version
// they pinned.
type driver struct {
	t  *testing.T
	vs *store.Versioned
	m  *Maintainer
}

func newDriver(t *testing.T, g *pg.Graph, threshold float64) *driver {
	t.Helper()
	d := &driver{t: t, vs: store.NewVersioned(g), m: New(threshold)}
	cur := d.vs.Current()
	if err := d.m.Init(context.Background(), cur.View(), cur.Seq()); err != nil {
		t.Fatalf("Init: %v", err)
	}
	d.vs.SetCommitHook(d.m.OnCommit)
	return d
}

// pinned drains the queue up to the current version and returns the
// maintained baseline there (nil when the maintainer lost it).
func (d *driver) pinned() *whatif.Baseline {
	cur := d.vs.Current()
	d.m.Drain(context.Background(), cur.View(), cur.Seq())
	return d.m.Baseline(cur.Seq(), d.m.Threshold())
}

// commit applies fn to a fresh transaction overlay and commits it.
func (d *driver) commit(fn func(o *pg.Overlay)) *store.Version {
	d.t.Helper()
	txn := d.vs.Begin()
	fn(txn.Overlay())
	v, err := txn.Commit()
	if err != nil {
		d.t.Fatalf("commit: %v", err)
	}
	return v
}

// maintained returns the maintained baseline for the current version,
// failing the test if the maintainer lost it.
func (d *driver) maintained() *whatif.Baseline {
	d.t.Helper()
	bl := d.pinned()
	if bl == nil {
		d.t.Fatalf("maintainer has no baseline at seq %d (stats %+v)", d.vs.Current().Seq(), d.m.Stats())
	}
	return bl
}

// oracle recomputes the full baseline of the current version from scratch.
func (d *driver) oracle() *whatif.Baseline {
	d.t.Helper()
	bl, err := whatif.ComputeBaseline(context.Background(), d.vs.Current().View(), d.m.Threshold())
	if err != nil {
		d.t.Fatalf("oracle chase: %v", err)
	}
	return bl
}

func checkAgainstOracle(t *testing.T, name string, got, want *whatif.Baseline) {
	t.Helper()
	diffPairSets(t, name+": control", got.Control, want.Control)
	diffPairSets(t, name+": closelink", got.CloseLink, want.CloseLink)
	// Accown agreement as strong sets at the threshold — the relation the
	// derived pairs are defined over (raw totals may differ by the chase's
	// bounded aggregate error, pair sets may not).
	gotStrong := strongSet(got)
	wantStrong := strongSet(want)
	diffPairSets(t, name+": strong accown", gotStrong, wantStrong)
}

func strongSet(bl *whatif.Baseline) map[whatif.Pair]bool {
	out := map[whatif.Pair]bool{}
	for _, rows := range bl.Accown {
		for _, f := range strongFacts(rows, bl.Threshold) {
			if p, ok := pairOf(f); ok {
				out[p] = true
			}
		}
	}
	return out
}

func sortedPairs(m map[whatif.Pair]bool) []whatif.Pair {
	out := make([]whatif.Pair, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i][0] < out[j][0] || (out[i][0] == out[j][0] && out[i][1] < out[j][1])
	})
	return out
}

func diffPairSets(t *testing.T, what string, got, want map[whatif.Pair]bool) {
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

// chainGraph builds a, b, c companies with a owning 60% of b.
func chainGraph() (*pg.Graph, [3]pg.NodeID) {
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	c := g.AddNode(pg.LabelCompany, pg.Properties{"name": "C"})
	g.MustAddEdge(pg.LabelShareholding, a, b, pg.Properties{pg.WeightProp: 0.6})
	return g, [3]pg.NodeID{a, b, c}
}

func TestIncrementalEdgeAdd(t *testing.T) {
	g, ids := chainGraph()
	a, b, c := ids[0], ids[1], ids[2]
	d := newDriver(t, g, whatif.DefaultThreshold)

	if bl := d.maintained(); !bl.Control[whatif.Pair{a, b}] {
		t.Fatalf("seeded baseline misses control(a,b): %v", bl.Control)
	}

	// b buys 60% of c: control propagates down the chain (a controls b's
	// stake), accown(a,c) = 0.36 crosses the close-link threshold.
	d.commit(func(o *pg.Overlay) {
		if _, err := o.AddShare(b, c, 0.6); err != nil {
			t.Fatal(err)
		}
	})
	bl := d.maintained()
	for _, p := range []whatif.Pair{{a, b}, {b, c}, {a, c}} {
		if !bl.Control[p] {
			t.Errorf("maintained control misses %v: %v", p, bl.Control)
		}
	}
	for _, p := range []whatif.Pair{{a, b}, {b, c}, {a, c}} {
		if !bl.CloseLink[canonical(p)] {
			t.Errorf("maintained closelink misses %v: %v", p, bl.CloseLink)
		}
	}
	checkAgainstOracle(t, "after add", bl, d.oracle())

	st := d.m.Stats()
	if st.IncrementalCommits != 1 || !st.Valid {
		t.Errorf("stats = %+v, want 1 incremental commit, valid", st)
	}
	if st.ControlChanged == 0 || st.CloseLinkChanged == 0 {
		t.Errorf("stats did not record derived changes: %+v", st)
	}
}

func TestIncrementalEdgeRemoveAndReweight(t *testing.T) {
	g, ids := chainGraph()
	a, b, c := ids[0], ids[1], ids[2]
	d := newDriver(t, g, whatif.DefaultThreshold)

	var bc pg.EdgeID
	d.commit(func(o *pg.Overlay) {
		var err error
		if bc, err = o.AddShare(b, c, 0.6); err != nil {
			t.Fatal(err)
		}
	})

	// Reweight below the control threshold but above the close-link one.
	d.commit(func(o *pg.Overlay) {
		if err := o.SetEdgeWeight(bc, 0.3); err != nil {
			t.Fatal(err)
		}
	})
	bl := d.maintained()
	if bl.Control[whatif.Pair{b, c}] || bl.Control[whatif.Pair{a, c}] {
		t.Errorf("control survived reweight to 0.3: %v", bl.Control)
	}
	if !bl.CloseLink[canonical(whatif.Pair{b, c})] {
		t.Errorf("closelink(b,c) lost despite 0.3 >= %v: %v", bl.Threshold, bl.CloseLink)
	}
	checkAgainstOracle(t, "after reweight", bl, d.oracle())

	// Remove the edge entirely: everything below b disappears.
	d.commit(func(o *pg.Overlay) {
		if !o.RemoveEdge(bc) {
			t.Fatal("RemoveEdge returned false")
		}
	})
	bl = d.maintained()
	if bl.CloseLink[canonical(whatif.Pair{b, c})] {
		t.Errorf("closelink(b,c) survived edge removal: %v", bl.CloseLink)
	}
	checkAgainstOracle(t, "after remove", bl, d.oracle())
}

func TestIncrementalNodeRemove(t *testing.T) {
	g, ids := chainGraph()
	b, c := ids[1], ids[2]
	d := newDriver(t, g, whatif.DefaultThreshold)
	d.commit(func(o *pg.Overlay) {
		if _, err := o.AddShare(b, c, 0.6); err != nil {
			t.Fatal(err)
		}
	})

	// Removing b takes its incident edges with it; a's whole cone collapses.
	d.commit(func(o *pg.Overlay) {
		if !o.RemoveNode(b) {
			t.Fatal("RemoveNode returned false")
		}
	})
	bl := d.maintained()
	if len(bl.Control) != 0 || len(bl.CloseLink) != 0 {
		t.Errorf("derived state survived removing the middle node: control=%v closelink=%v",
			bl.Control, bl.CloseLink)
	}
	checkAgainstOracle(t, "after node remove", bl, d.oracle())
}

func TestIrrelevantCommitSkips(t *testing.T) {
	g, _ := chainGraph()
	d := newDriver(t, g, whatif.DefaultThreshold)

	// A person node with a family edge cannot move the ownership relations.
	d.commit(func(o *pg.Overlay) {
		p1 := o.AddNode(pg.LabelPerson, pg.Properties{"name": "P1"})
		p2 := o.AddNode(pg.LabelPerson, pg.Properties{"name": "P2"})
		o.MustAddEdge(pg.LabelPartnerOf, p1, p2, nil)
	})
	d.maintained() // maintenance runs when a read drains the queue
	st := d.m.Stats()
	if st.SkippedCommits != 1 || st.IncrementalCommits != 0 {
		t.Errorf("stats = %+v, want exactly one skipped commit", st)
	}
	// The skip still advances the maintained sequence.
	if d.maintained() == nil {
		t.Fatal("baseline lost after skipped commit")
	}
}

func TestBaselineMismatches(t *testing.T) {
	g, _ := chainGraph()
	d := newDriver(t, g, whatif.DefaultThreshold)
	seq := d.vs.Current().Seq()

	if d.m.Baseline(seq+1, d.m.Threshold()) != nil {
		t.Error("Baseline returned state for a future sequence")
	}
	if d.m.Baseline(seq, d.m.Threshold()+0.1) != nil {
		t.Error("Baseline returned state for a different threshold")
	}
	if d.m.Baseline(seq, 0) == nil && d.m.Threshold() == whatif.DefaultThreshold {
		t.Error("Baseline(seq, 0) should resolve 0 to the default threshold")
	}
}

func TestSeedRejectsThresholdMismatch(t *testing.T) {
	g, _ := chainGraph()
	ctx := context.Background()
	bl, err := whatif.ComputeBaseline(ctx, g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	m := New(whatif.DefaultThreshold)
	if err := m.Seed(ctx, g, 0, m.Roots(), bl); err == nil {
		t.Fatal("Seed accepted a baseline at a different threshold")
	}
}

// A new root (a replica's snapshot bootstrap) drops the maintained state,
// and a baseline computed over the replaced history cannot seed it — even
// at a seq the new root reuses.
func TestNewRootDropsReplacedHistory(t *testing.T) {
	g, _ := chainGraph()
	d := newDriver(t, g, whatif.DefaultThreshold)
	ctx := context.Background()
	old := d.vs.Current()
	roots := d.m.Roots()
	stale, err := whatif.ComputeBaseline(ctx, old.View(), d.m.Threshold())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.vs.Reset(pg.New(), old.Seq(), nil); err != nil {
		t.Fatal(err)
	}
	cur := d.vs.Current()
	if d.pinned() != nil {
		t.Fatal("maintainer served the replaced history at the new root")
	}
	if err := d.m.Seed(ctx, old.View(), old.Seq(), roots, stale); err != nil {
		t.Fatal(err)
	}
	if d.pinned() != nil {
		t.Fatal("a seed from the replaced history was accepted")
	}
	if err := d.m.Init(ctx, cur.View(), cur.Seq()); err != nil {
		t.Fatal(err)
	}
	d.commit(func(o *pg.Overlay) {
		a := o.AddNode(pg.LabelCompany, nil)
		b := o.AddNode(pg.LabelCompany, nil)
		if _, err := o.AddShare(a, b, 0.7); err != nil {
			t.Fatal(err)
		}
	})
	checkAgainstOracle(t, "after new root", d.maintained(), d.oracle())
}

func TestInvalidateAndReseed(t *testing.T) {
	g, _ := chainGraph()
	d := newDriver(t, g, whatif.DefaultThreshold)
	ctx := context.Background()
	cur := d.vs.Current()

	d.m.Invalidate()
	if d.m.Baseline(cur.Seq(), d.m.Threshold()) != nil {
		t.Fatal("Baseline served after Invalidate")
	}
	if err := d.m.Apply(ctx, cur.View(), cur.Seq(), cur.Seq()+1, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Apply on invalid maintainer = %v, want ErrInvalid", err)
	}
	st := d.m.Stats()
	if st.Invalidations != 1 || st.Valid {
		t.Errorf("stats = %+v, want one invalidation, invalid", st)
	}

	if err := d.m.Init(ctx, cur.View(), cur.Seq()); err != nil {
		t.Fatalf("re-Init: %v", err)
	}
	if d.m.Baseline(cur.Seq(), d.m.Threshold()) == nil {
		t.Fatal("Baseline missing after re-Init")
	}
}

func TestMalformedJournalInvalidates(t *testing.T) {
	g, _ := chainGraph()
	d := newDriver(t, g, whatif.DefaultThreshold)
	cur := d.vs.Current()
	err := d.m.Apply(context.Background(), cur.View(), cur.Seq(), cur.Seq()+1,
		[]pg.Mutation{{Kind: pg.MutAddEdge}}) // edge mutation without an edge
	if err == nil {
		t.Fatal("Apply accepted a malformed mutation")
	}
	if d.m.Baseline(cur.Seq(), d.m.Threshold()) != nil {
		t.Fatal("Baseline survived a malformed journal")
	}
}

func TestJournalGapInvalidates(t *testing.T) {
	g, ids := chainGraph()
	b, c := ids[1], ids[2]
	d := newDriver(t, g, whatif.DefaultThreshold)
	cur := d.vs.Current()
	// A journal claiming to start two sequences ahead means a commit was
	// missed; applying it would silently diverge, so the maintainer refuses.
	o := pg.NewOverlay(cur.View())
	if _, err := o.AddShare(b, c, 0.6); err != nil {
		t.Fatal(err)
	}
	journal, err := o.Journal()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.m.Apply(context.Background(), o, cur.Seq()+1, cur.Seq()+2, journal); err == nil {
		t.Fatal("Apply accepted a journal with a sequence gap")
	}
	if d.m.Baseline(cur.Seq(), d.m.Threshold()) != nil {
		t.Fatal("Baseline survived a journal gap")
	}
	if st := d.m.Stats(); st.Invalidations != 1 {
		t.Errorf("stats = %+v, want one invalidation", st)
	}
}
