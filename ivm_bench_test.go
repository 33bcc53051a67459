// Benchmark regression harness for incremental view maintenance:
// BenchmarkIncrementalUpdate pits the mutation-driven differential chase
// (internal/ivm, the commit-hook path behind the serving tier) against the
// full re-chase it replaces, on a single shareholding-edge change over the
// graphgen size ladder. scripts/bench.sh runs it; the PR that introduced the
// maintainer recorded the trajectory in BENCH_8.json.
package vadalink_test

import (
	"context"
	"fmt"
	"testing"

	"vadalink/internal/graphgen"
	"vadalink/internal/ivm"
	"vadalink/internal/pg"
	"vadalink/internal/store"
	"vadalink/internal/whatif"
)

// ivmWorkload builds a fixed-seed Italian graph wrapped in a versioned store
// with a warm maintainer, plus the mutation target: the first shareholding
// edge and its original weight (iterations toggle it between w and w/2, so
// the incoming-share invariant always holds).
func ivmWorkload(b *testing.B, n int) (*store.Versioned, *ivm.Maintainer, pg.EdgeID, float64) {
	b.Helper()
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: n / 2, Companies: n, Seed: 7})
	shares := it.Graph.EdgesWithLabel(pg.LabelShareholding)
	if len(shares) == 0 {
		b.Fatal("workload has no shareholdings")
	}
	e := shares[0]
	w, _ := it.Graph.Edge(e).Weight()

	vs := store.NewVersioned(it.Graph)
	m := ivm.New(whatif.DefaultThreshold)
	cur := vs.Current()
	if err := m.Init(context.Background(), cur.View(), cur.Seq()); err != nil {
		b.Fatal(err)
	}
	vs.AddCommitHook(m.OnCommit)
	return vs, m, e, w
}

// BenchmarkIncrementalUpdate measures the serving-tier cost of one committed
// shareholding-edge change: "incremental" commits the change through the
// versioned store and drains it through the maintainer's differential chase
// (the commit hook queues, the next what-if drains); "full"
// re-chases the whole graph from scratch, which is what every commit cost
// before the maintainer existed. The differential harness in internal/ivm
// proves the two agree; this benchmark records the gap.
func BenchmarkIncrementalUpdate(b *testing.B) {
	ctx := context.Background()
	for _, n := range graphgen.BenchmarkSizes {
		// The size is the outer sub-benchmark so the warm-up chase in
		// ivmWorkload only runs for sizes the -bench filter selects.
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			vs, m, e, w := ivmWorkload(b, n)

			b.Run("incremental", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					next := w / 2
					if i%2 == 1 {
						next = w
					}
					txn := vs.Begin()
					if err := txn.Overlay().SetEdgeWeight(e, next); err != nil {
						b.Fatal(err)
					}
					ver, err := txn.Commit()
					if err != nil {
						b.Fatal(err)
					}
					m.Drain(ctx, ver.View(), ver.Seq())
				}
				if st := m.Stats(); !st.Valid || st.IncrementalCommits == 0 {
					b.Fatalf("maintainer invalidated during benchmark: %+v", st)
				}
			})

			b.Run("full", func(b *testing.B) {
				b.ReportAllocs()
				v := vs.Current().View()
				for i := 0; i < b.N; i++ {
					if _, err := whatif.ComputeBaseline(ctx, v, whatif.DefaultThreshold); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
