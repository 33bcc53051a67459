// Benchmark regression harness for the reasoning hot path: the semi-naive
// chase (BenchmarkChase), conjunctive queries over its output
// (BenchmarkQuery), and the full KG-augmentation loop (BenchmarkAugment),
// each over fixed-seed graphgen workloads of increasing size
// (graphgen.BenchmarkSizes). scripts/bench.sh runs these and emits one
// BENCH_<n>.json per size; before/after numbers of engine-touching PRs are
// recorded in CHANGES.md.
package vadalink_test

import (
	"fmt"
	"testing"

	"vadalink"
	"vadalink/internal/datalog"
	"vadalink/internal/graphgen"
	"vadalink/internal/relstore"
	"vadalink/internal/vadalog"
)

// chaseWorkload builds the extensional database of the control program on a
// fixed-seed Italian company graph with n companies (and n/2 persons, the
// ratio of the paper's yearly snapshots).
func chaseWorkload(b *testing.B, n int) []datalog.Fact {
	b.Helper()
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: n / 2, Companies: n, Seed: 7})
	return relstore.CompanyGraphFacts(it.Graph)
}

// BenchmarkChase runs the company-control chase (Algorithm 5) to fixpoint on
// graphgen workloads of {1k, 10k, 50k} companies. The scan sub-benchmarks
// evaluate the same program with indexes disabled — the pre-index baseline
// the speedup numbers in CHANGES.md are measured against. Scan mode is
// quadratic in relation size (measured on a 2-vCPU machine: 0.05 s at 1k,
// 5.2 s at 10k), so it only runs at the smallest size here.
func BenchmarkChase(b *testing.B) {
	for _, n := range graphgen.BenchmarkSizes {
		edb := chaseWorkload(b, n)
		for _, mode := range []struct {
			name string
			opts []datalog.Option
		}{
			{"indexed", nil},
			{"stats", []datalog.Option{datalog.WithStats()}},
			{"scan", []datalog.Option{datalog.WithNoIndex()}},
		} {
			// Scan mode is quadratic: only the smallest size. The stats mode
			// exists to bound instrumentation overhead against "indexed".
			if mode.name == "scan" && n > 1000 {
				continue
			}
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(b *testing.B) {
				prog := datalog.MustParse(vadalog.ControlProgram)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e, err := datalog.NewEngine(prog, mode.opts...)
					if err != nil {
						b.Fatal(err)
					}
					e.AssertAll(edb)
					if err := e.Run(); err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(e.NumFacts("control")), "control-facts")
					// In stats mode, surface the chase report in the bench
					// output so bench.sh lands it in BENCH_<n>.json.
					if st := e.Stats(); st != nil {
						b.ReportMetric(float64(st.Rounds), "chase-rounds")
						b.ReportMetric(float64(st.Derived), "derived-facts")
						b.ReportMetric(float64(st.Duplicates), "duplicate-facts")
						b.ReportMetric(float64(st.IndexHits), "index-hits")
						b.ReportMetric(float64(st.IndexScans), "index-scans")
						b.ReportMetric(st.Utilization, "pool-utilization")
					}
				}
			})
		}
	}
}

// BenchmarkQuery measures conjunctive-query answering over the materialized
// control relation: a two-atom join (who controls a controller) plus a
// bound-argument point lookup, the two access patterns of /v1/reason.
func BenchmarkQuery(b *testing.B) {
	for _, n := range graphgen.BenchmarkSizes {
		edb := chaseWorkload(b, n)
		prog := datalog.MustParse(vadalog.ControlProgram)
		e, err := datalog.NewEngine(prog)
		if err != nil {
			b.Fatal(err)
		}
		e.AssertAll(edb)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		controls := e.Facts("control")
		if len(controls) == 0 {
			b.Fatal("no control facts derived")
		}
		b.Run(fmt.Sprintf("join/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Query(
					datalog.Atom{Pred: "control", Terms: []datalog.Term{datalog.Variable("X"), datalog.Variable("Y")}},
					datalog.Atom{Pred: "control", Terms: []datalog.Term{datalog.Variable("Y"), datalog.Variable("Z")}},
				)
			}
		})
		b.Run(fmt.Sprintf("point/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := controls[i%len(controls)]
				e.Match("control", f.Args[0], nil)
			}
		})
	}
}

// BenchmarkAugment measures the full augmentation loop (blocking + family
// matching) on growing graphs — the end-to-end path behind /v1/augment.
func BenchmarkAugment(b *testing.B) {
	for _, n := range graphgen.BenchmarkSizes {
		if n > 10_000 {
			// The classifier loop is quadratic per block; 50k is the chase
			// benchmark's job, not this one's.
			continue
		}
		it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: n, Companies: n / 2, Seed: 7})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := it.Graph.Clone()
				_, err := vadalink.Augment(g, vadalink.AugmentConfig{
					Blocker:    vadalink.PersonBlocker{},
					Candidates: []vadalink.Candidate{&vadalink.FamilyCandidate{}},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
