package main

// analyst_jobs: one analyst's session on a durable standalone server over
// 1,000 companies. Blocks of what-if scenarios (acquisitions, setShare,
// removeEdge) each reason at one close-link threshold of a seeded sweep; the
// first what-if after a switch pays a full whatif.ComputeBaseline (the
// re-derive), the rest the scoped chase. Every few blocks the session runs
// /v1/augment, which pays core, embed and cluster plus the store commit and
// WAL fsync. The point-read and replication layers stay idle here.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"time"

	"vadalink/internal/cluster"
	"vadalink/internal/core"
	"vadalink/internal/embed"
	"vadalink/internal/persist"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
	"vadalink/internal/store"
	"vadalink/internal/whatif"
)

// augmentRequest is the analyst's augmentation: family links, clustered
// embedding with augmentClusters first-level clusters.
var augmentBody = []byte(fmt.Sprintf(`{"clusters": %d}`, augmentClusters))

// augmentConfig is the configuration the server builds for augmentBody.
func augmentConfig() core.Config {
	return core.Config{
		Candidates:  []core.Candidate{&core.FamilyCandidate{}},
		FirstLevelK: augmentClusters,
		Embed:       embed.Config{Seed: 1},
		Blocker:     cluster.PersonBlocker{},
	}
}

type augmentAnswer struct {
	Added       map[pg.Label]int `json:"added"`
	Comparisons int64            `json:"comparisons"`
	Blocks      int              `json:"blocks"`
	Stats       struct {
		EmbedMillis float64 `json:"embedMillis"`
		MatchMillis float64 `json:"matchMillis"`
	} `json:"stats"`
}

// mirror is a private durable MVCC store the traced run replays augments on,
// wired like the server's: commits replay onto the store's graph.
type mirror struct {
	ps *persist.Store
	vs *store.Versioned
}

func runAnalystJobs(e env) (*outcome, error) {
	in := genAnalyst(e.seed, e.d)
	dirOf := func(i int) string { return filepath.Join(e.dir, fmt.Sprint("server", i)) }
	rig, setups, err := setUp(func(i int) (*serverRig, error) {
		return startServer(in.Graph.Clone(), dirOf(i))
	}, (*serverRig).stop)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			rig.stop()
		}
	}()
	out := &outcome{setups: setups, detail: report{}, layers: newLayers()}
	out.layers.set("persist.snapshot_ms", ms(rig.snapshot), "ms")
	c := newClient(rig.ts.URL, 1)
	defer c.close()
	ctx := context.Background()

	var mir mirror
	var wl whatifLayers
	var traceBL *whatif.Baseline
	if e.trace != nil {
		if mir.ps, err = persist.Open(filepath.Join(e.dir, "mirror"), persist.Options{SyncEvery: syncEvery}); err != nil {
			return nil, err
		}
		defer mir.ps.Close()
		if err := mir.ps.Import(in.Graph.Clone()); err != nil {
			return nil, err
		}
		mir.vs = store.NewVersioned(mir.ps.Graph())
	}

	type kept struct {
		job  jobOp
		body []byte
	}
	var samples []kept
	var scoped, rederive, augments []float64
	var journal, embedMs, matchMs, comps, blocks []float64
	var self []time.Duration
	ackedAdded := map[pg.Label]int{}
	probe := startRuntimeProbe()
	start := time.Now()
	for i := 0; i < len(in.Jobs) && time.Since(start) < e.d; i++ {
		job := in.Jobs[i]
		out.attempted++
		if job.Kind == "augment" {
			resp, err := c.do(http.MethodPost, "/v1/augment", augmentBody)
			var ans augmentAnswer
			if err == nil && !resp.failed() {
				err = json.Unmarshal(resp.body, &ans)
			}
			if err != nil || resp.failed() {
				out.failed++
				continue
			}
			augments = append(augments, ms(resp.took))
			for l, n := range ans.Added {
				ackedAdded[l] += n
			}
			if e.trace != nil {
				embedMs = append(embedMs, ans.Stats.EmbedMillis)
				matchMs = append(matchMs, ans.Stats.MatchMillis)
				comps = append(comps, float64(ans.Comparisons))
				blocks = append(blocks, float64(ans.Blocks))
				n, err := replayAugment(e.trace, mir)
				if err != nil {
					return nil, err
				}
				journal = append(journal, n)
			}
			continue
		}
		resp, err := postWhatif(c, job.Scenario, job.Threshold)
		if err != nil || resp.failed() {
			out.failed++
			continue
		}
		if job.First {
			rederive = append(rederive, ms(resp.took))
		} else {
			scoped = append(scoped, ms(resp.took))
			if len(samples) < 2 && (len(samples) == 0 || samples[0].job.Threshold != job.Threshold) {
				samples = append(samples, kept{job, resp.body})
			}
		}
		if e.trace != nil {
			view := mir.vs.Current().View()
			if job.First {
				if traceBL, err = wl.replayBaseline(e.trace, view, job.Threshold); err != nil {
					return nil, err
				}
			}
			eval := wl.replayScoped(e.trace, view, traceBL, job.Scenario, job.Threshold)
			if !job.First {
				self = append(self, resp.took-eval)
			}
		}
	}
	probe.finish(out.detail, out.layers, out.attempted)

	out.light, out.heavy = scoped, rederive
	out.detail.lat("whatif", scoped, tailPct(len(scoped)))
	out.detail.lat("rederive", rederive, tailPct(len(rederive)))
	out.detail.lat("augment", augments, tailPct(len(augments)))
	if e.trace != nil {
		wl.fill(out.layers, e.trace)
		out.layers.setMedianUs("reasonapi.self_us", self)
		spans := e.trace.selfTimes()
		out.layers.setMedianMs("store.commit_ms", spans["store.commit"])
		out.layers["store.journal_len"] = metric{Value: median(journal), Unit: "count", N: len(journal)}
		out.layers.setMedianMs("persist.sync_ms", spans["persist.sync"])
		out.layers["core.embed_ms"] = metric{Value: median(embedMs), Unit: "ms", N: len(embedMs)}
		out.layers["core.match_ms"] = metric{Value: median(matchMs), Unit: "ms", N: len(matchMs)}
		out.layers["core.comparisons"] = metric{Value: median(comps), Unit: "count", N: len(comps)}
		out.layers["core.blocks"] = metric{Value: median(blocks), Unit: "count", N: len(blocks)}
		out.layers.set("bench.trace_overhead_us", us(e.trace.overheadPerOp()), "us")
	}

	// Output checks. Augmentation adds only family edges, which are outside
	// the relational image the what-if chase reads, so the sampled answers
	// are checked against the initial graph — after checking that the image
	// indeed did not change.
	for _, s := range samples {
		got, err := decodeDiff(s.body)
		if err != nil {
			out.check(false, "%v", err)
			continue
		}
		want, err := referenceDiff(ctx, in.Graph, s.job.Scenario, s.job.Threshold)
		if err != nil {
			out.check(false, "reference what-if: %v", err)
			continue
		}
		out.check(got.equal(want), "scoped what-if at %v: served %+v, unscoped %+v", s.job.Threshold, got, want)
	}
	out.check(len(samples) > 0, "no scoped what-if answered")

	if err := checkNoEvictions(out, c); err != nil {
		return nil, err
	}
	// Durability: every augment edge the server acknowledged is in the data
	// dir after a clean stop and reopen.
	stopped = true
	if err := rig.stop(); err != nil {
		return nil, err
	}
	re, err := persist.Open(dirOf(setupRepeats-1), persist.Options{})
	if err != nil {
		return nil, err
	}
	defer re.Close()
	rg := re.Graph()
	out.check(reflect.DeepEqual(relstore.CompanyGraphFacts(rg), relstore.CompanyGraphFacts(in.Graph)),
		"augmentation changed the relational image")
	for l, n := range ackedAdded {
		want := len(in.Graph.EdgesWithLabel(l)) + n
		got := len(rg.EdgesWithLabel(l))
		out.check(got == want, "%s edges after reopen: %d, acknowledged %d", l, got, want)
	}
	return out, nil
}

// replayAugment re-runs the calls of one /v1/augment on the mirror: the
// augmentation on an overlay transaction, its commit and the WAL sync. It
// returns the committed journal's length (one mutation per added edge).
func replayAugment(tr *tracer, m mirror) (float64, error) {
	aug, err := core.New(augmentConfig())
	if err != nil {
		return 0, err
	}
	o := tr.op("augment")
	defer o.finish()
	txn := m.vs.Begin()
	var res *core.Result
	o.do("core.augment", func() { res, err = aug.RunContext(context.Background(), txn.Overlay()) })
	if err != nil {
		return 0, err
	}
	o.do("store.commit", func() { _, err = txn.Commit() })
	if err != nil {
		return 0, err
	}
	o.do("persist.sync", func() { err = m.ps.Sync() })
	return float64(len(res.AddedEdges)), err
}
