package main

// What-ifs shared by registry_churn and analyst_jobs: the request, the
// answer as a pair diff, the unscoped reference answer the output checks
// compare against, and the traced replay of the layer calls a what-if
// handler makes.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"time"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
	"vadalink/internal/whatif"
)

func postWhatif(c *client, ops []whatif.Op, threshold float64) (response, error) {
	body, err := json.Marshal(map[string]any{"ops": ops, "threshold": threshold})
	if err != nil {
		return response{}, err
	}
	return c.do(http.MethodPost, "/v1/whatif", body)
}

// diff is a what-if answer: the control and close-link pairs gained and lost.
type diff struct {
	ControlGained, ControlLost, LinkGained, LinkLost []whatif.Pair
}

func (d diff) empty() bool {
	return len(d.ControlGained)+len(d.ControlLost)+len(d.LinkGained)+len(d.LinkLost) == 0
}

func (d diff) equal(o diff) bool { return reflect.DeepEqual(d.norm(), o.norm()) }

func (d diff) norm() diff {
	for _, ps := range []*[]whatif.Pair{&d.ControlGained, &d.ControlLost, &d.LinkGained, &d.LinkLost} {
		if len(*ps) == 0 {
			*ps = nil
		}
		sort.Slice(*ps, func(i, j int) bool {
			a, b := (*ps)[i], (*ps)[j]
			return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
		})
	}
	return d
}

func decodeDiff(body []byte) (diff, error) {
	type pair struct{ X, Y pg.NodeID }
	var r struct {
		Control    struct{ Gained, Lost []pair }
		CloseLinks struct{ Gained, Lost []pair } `json:"closeLinks"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return diff{}, fmt.Errorf("decoding what-if answer: %w", err)
	}
	conv := func(ps []pair) []whatif.Pair {
		out := make([]whatif.Pair, len(ps))
		for i, p := range ps {
			out[i] = whatif.Pair{p.X, p.Y}
		}
		return out
	}
	return diff{conv(r.Control.Gained), conv(r.Control.Lost), conv(r.CloseLinks.Gained), conv(r.CloseLinks.Lost)}, nil
}

// referenceDiff answers a scenario the slow, obviously complete way: a fresh
// full baseline and an unscoped re-chase of the whole composite graph.
func referenceDiff(ctx context.Context, v pg.View, ops []whatif.Op, threshold float64) (diff, error) {
	bl, err := whatif.ComputeBaseline(ctx, v, threshold, engineOpts()...)
	if err != nil {
		return diff{}, err
	}
	res, err := whatif.Evaluate(ctx, v, bl, ops, whatif.Options{Threshold: threshold, NoScope: true, Engine: engineOpts()})
	if err != nil {
		return diff{}, err
	}
	return diff{res.ControlGained, res.ControlLost, res.CloseLinkGained, res.CloseLinkLost}, nil
}

// whatifLayers accumulates the traced replay of what-ifs.
type whatifLayers struct {
	affected              []float64
	ivmApply, ivmAffected []float64
	chase                 *datalog.ChaseStats
}

// replayBaseline re-runs the full baseline chase of a threshold switch. The
// first one is also replayed call by call, for the chase's own counters.
func (l *whatifLayers) replayBaseline(tr *tracer, v pg.View, threshold float64) (*whatif.Baseline, error) {
	if l.chase == nil {
		prog, err := datalog.Parse(whatif.Programs(threshold))
		if err != nil {
			return nil, err
		}
		e, err := datalog.NewEngine(prog, engineOpts()...)
		if err != nil {
			return nil, err
		}
		e.AssertAll(relstore.CompanyGraphFacts(v))
		if err := e.RunContext(context.Background()); err != nil {
			return nil, err
		}
		l.chase = e.Stats()
	}
	o := tr.op("whatif.rederive")
	defer o.finish()
	var bl *whatif.Baseline
	var err error
	o.do("whatif.baseline", func() { bl, err = whatif.ComputeBaseline(context.Background(), v, threshold, engineOpts()...) })
	return bl, err
}

// replayScoped re-runs a scoped what-if: the overlay apply, then the
// evaluation (which applies the ops again on its own overlay and chases the
// affected cone). It returns the evaluation's time, the handler's own work
// on a warm baseline.
func (l *whatifLayers) replayScoped(tr *tracer, v pg.View, bl *whatif.Baseline, ops []whatif.Op, threshold float64) time.Duration {
	o := tr.op("whatif.scoped")
	defer o.finish()
	o.do("pg.overlay_apply", func() { _, _, _ = whatif.Apply(pg.NewOverlay(v), ops) })
	var res *whatif.Result
	t0 := time.Now()
	o.do("whatif.evaluate", func() {
		res, _ = whatif.Evaluate(context.Background(), v, bl, ops, whatif.Options{Threshold: threshold, Engine: engineOpts()})
	})
	took := time.Since(t0)
	if res != nil {
		l.affected = append(l.affected, float64(res.AffectedSources))
	}
	return took
}

func (l *whatifLayers) fill(layers report, tr *tracer) {
	self := tr.selfTimes()
	layers.setMedianMs("whatif.baseline_ms", self["whatif.baseline"])
	layers.setMedianMs("whatif.evaluate_ms", self["whatif.evaluate"])
	layers.setMedianUs("pg.overlay_apply_us", self["pg.overlay_apply"])
	layers["whatif.affected_sources"] = metric{Value: median(l.affected), Unit: "count", N: len(l.affected)}
	if st := l.chase; st != nil {
		layers.set("datalog.baseline_rounds", float64(st.Rounds), "count")
		layers.set("datalog.baseline_derived", float64(st.Derived), "count")
		layers.set("datalog.baseline_index_hits", float64(st.IndexHits), "count")
		layers.set("datalog.baseline_index_scans", float64(st.IndexScans), "count")
		layers.set("datalog.baseline_worker_util", st.Utilization, "ratio")
	}
	if len(l.ivmApply) > 0 {
		layers["ivm.apply_ms"] = metric{Value: median(l.ivmApply), Unit: "ms", N: len(l.ivmApply)}
		layers["ivm.affected_sources"] = metric{Value: median(l.ivmAffected), Unit: "count", N: len(l.ivmAffected)}
	}
}
