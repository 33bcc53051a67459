package datalog

// Coverage for the frozen extensional base (base.go): engines mounting one
// Base concurrently derive exactly what engines with their own asserted
// copy derive, racing only on the lazy index builds, and no engine — not
// even one whose program derives a mounted predicate — ever writes to it.

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// baseSnapshot renders every relation of b — fact order, argument values
// and key set — so any write to the base shows up as a difference.
func baseSnapshot(b *Base) map[string][]string {
	out := map[string][]string{}
	for pred, r := range b.rels {
		var rows []string
		for _, f := range r.facts {
			rows = append(rows, f.Key())
		}
		keys := make([]string, 0, len(r.keys))
		for k := range r.keys {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		out[pred] = append(append(rows, "--"), keys...)
	}
	return out
}

func sameSnapshot(t *testing.T, before, after map[string][]string) {
	t.Helper()
	if len(before) != len(after) {
		t.Fatalf("base predicates changed: %d → %d", len(before), len(after))
	}
	for pred, rows := range before {
		if !slices.Equal(rows, after[pred]) {
			t.Fatalf("base relation %s was written", pred)
		}
	}
}

// TestBaseSharedAcrossConcurrentEngines chases one Base from many goroutines
// at once (under -race: their first probes race to build the base's
// indexes), alongside engines whose programs derive the mounted own
// predicate. Every engine must match an engine that asserted its own copy of
// the facts, and the base must stay byte-identical.
func TestBaseSharedAcrossConcurrentEngines(t *testing.T) {
	edb := randomEDB(rand.New(rand.NewSource(7)))
	b := NewBase(edb)
	before := baseSnapshot(b)

	// deriveOwn writes into own: mirrored stakes make it symmetric.
	const deriveOwn = `
own(X, Y, W) -> own(Y, X, W).
own(X, Y, _) -> reach(X, Y).
reach(X, Y), own(Y, Z, _), X != Z -> reach(X, Z).
`
	programs := []string{closureProgram, deriveOwn}
	preds := []string{"reach", "oneway", "own", "company", "person"}
	want := make([][]string, len(programs))
	for i, src := range programs {
		e, err := NewEngine(MustParse(src), WithParallel(1))
		if err != nil {
			t.Fatal(err)
		}
		e.AssertAll(edb)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want[i] = engineFactSet(e, preds)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(programs)
			e, err := NewEngine(MustParse(programs[i]), WithBase(b), WithParallel(1+g%3))
			if err != nil {
				t.Error(err)
				return
			}
			if err := e.Run(); err != nil {
				t.Error(err)
				return
			}
			if d := diffFactSets(want[i], engineFactSet(e, preds)); d != "missing=[] extra=[]" {
				t.Errorf("engine %d over the shared base diverges: %s", g, d)
			}
			// Probe the second own position too, racing another lazy build.
			e.Match("own", nil, int64(1), nil)
		}(g)
	}
	wg.Wait()
	sameSnapshot(t, before, baseSnapshot(b))
	if b.IndexBytes() == 0 {
		t.Fatal("no index was built on the shared base")
	}
}

// TestBaseWritesThawPrivateCopies checks the mount rule directly: Assert
// and Retract on a mounted predicate change only the engine that made them.
func TestBaseWritesThawPrivateCopies(t *testing.T) {
	edb := randomEDB(rand.New(rand.NewSource(3)))
	b := NewBase(edb)
	before := baseSnapshot(b)
	a, err := NewEngine(MustParse(closureProgram), WithBase(b))
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewEngine(MustParse(closureProgram), WithBase(b))
	if err != nil {
		t.Fatal(err)
	}
	extra := Fact{Pred: "own", Args: []any{int64(900), int64(901), 0.5}}
	if !a.Assert(extra) || !a.Has(extra) {
		t.Fatal("Assert on a mounted predicate did not land")
	}
	var gone Fact
	for _, f := range edb {
		if f.Pred == "own" {
			gone = f
			break
		}
	}
	if !a.Retract(gone) || a.Has(gone) {
		t.Fatal("Retract on a mounted predicate did not land")
	}
	if other.Has(extra) || !other.Has(gone) {
		t.Fatal("a write through one engine leaked into another engine")
	}
	if a.Retract(Fact{Pred: "company", Args: []any{int64(-1)}}) {
		t.Fatal("Retract of an absent fact reported success")
	}
	sameSnapshot(t, before, baseSnapshot(b))
	distinct := map[string]bool{}
	for _, f := range edb {
		distinct[f.Key()] = true
	}
	if b.NumFacts() != len(distinct) {
		t.Fatalf("NumFacts = %d, want the distinct facts of the base", b.NumFacts())
	}
}

// TestBaseIndexBytesChargeTheBase pins where shared index memory is
// accounted: an engine whose only probes hit the mounted base keeps an
// empty index budget, even one too small for any index at all.
func TestBaseIndexBytesChargeTheBase(t *testing.T) {
	b := NewBase(randomEDB(rand.New(rand.NewSource(5))))
	e, err := NewEngine(MustParse(closureProgram), WithBase(b), WithBudget(Budget{MaxIndexBytes: 1}))
	if err != nil {
		t.Fatal(err)
	}
	e.Match("own", int64(0), nil, nil)
	if e.IndexBytes() != 0 || b.IndexBytes() == 0 {
		t.Fatalf("engine IndexBytes = %d, base IndexBytes = %d; want 0 and > 0", e.IndexBytes(), b.IndexBytes())
	}
}
