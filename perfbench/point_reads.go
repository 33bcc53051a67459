package main

// point_reads: the analyst read path. A standalone durable server (MVCC
// reads, 2 ms WAL group commit) over 10,000 companies answers an open-loop
// Poisson stream of point reads whose keys are Zipf(1.1) over the
// shareholding edges, after an untimed warm-up that fills the result cache.
// Hits exercise reasonapi and qcache; misses exercise the goal path through
// vadalog, relstore and datalog. Nothing writes, so persist, replication,
// ivm and whatif stay idle: their layer metrics read 0 here.

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"time"

	"vadalink/internal/persist"
	"vadalink/internal/pg"
	"vadalink/internal/reasonapi"
)

// serverRig is one durable standalone server on loopback.
type serverRig struct {
	store    *persist.Store
	ts       *httptest.Server
	snapshot time.Duration // Import, which cuts the initial snapshot
}

func startServer(g *pg.Graph, dir string) (*serverRig, error) {
	st, err := persist.Open(dir, persist.Options{SyncEvery: syncEvery})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := st.Import(g); err != nil {
		st.Close()
		return nil, err
	}
	snap := time.Since(t0)
	srv := reasonapi.NewServerWith(st.Graph(), reasonapi.Config{Persist: st})
	return &serverRig{store: st, ts: httptest.NewServer(srv.Handler()), snapshot: snap}, nil
}

func (r *serverRig) stop() error {
	r.ts.Close()
	return r.store.Close()
}

func runPointReads(e env) (*outcome, error) {
	in := genPoint(e.seed, e.d)
	rig, setups, err := setUp(func(i int) (*serverRig, error) {
		return startServer(in.Graph.Clone(), filepath.Join(e.dir, fmt.Sprint("server", i)))
	}, (*serverRig).stop)
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	out := &outcome{setups: setups, detail: report{}, layers: newLayers()}
	out.layers.set("persist.snapshot_ms", ms(rig.snapshot), "ms")
	c := newClient(rig.ts.URL, 2)
	defer c.close()

	// Warm-up: every request due at once, so two clients work through them
	// back to back and fill the cache from the same key distribution. A
	// failure here is a broken set-up, not a measurement.
	warmErrs := make([]error, len(in.Warmup))
	openLoop(context.Background(), make([]time.Duration, len(in.Warmup)), 2, time.Hour, func(i int) {
		op := in.Warmup[i]
		resp, err := doRead(c, op.Kind, op.From, op.To)
		if err == nil && resp.failed() {
			err = fmt.Errorf("warm-up %s: status %d: %s", op.Kind, resp.status, resp.body)
		}
		warmErrs[i] = err
	})
	if err := errors.Join(warmErrs...); err != nil {
		return nil, err
	}

	view := rig.store.Graph() // nothing writes, so the served view stays this graph
	resps := make([]response, len(in.Timed))
	errs := make([]error, len(in.Timed))
	rl := newReadLayers()
	replays := make([]time.Duration, len(in.Timed))
	probe := startRuntimeProbe()
	due := make([]time.Duration, len(in.Timed))
	for i, op := range in.Timed {
		due[i] = op.Due
	}
	lat, late, skipped := openLoop(context.Background(), due, 2, requestTimeout, func(i int) {
		op := in.Timed[i]
		resps[i], errs[i] = doRead(c, op.Kind, op.From, op.To)
		// The traced run replays every third read; replaying all of them
		// would double the load of the open loop.
		if e.trace != nil && errs[i] == nil && i%3 == 0 {
			o := e.trace.op("read." + op.Kind)
			replays[i] = rl.replayRead(o, view, op.Kind, op.From, op.To, resps[i])
			o.finish()
		}
	})
	probe.finish(out.detail, out.layers, len(in.Timed))
	if err := checkNoEvictions(out, c); err != nil {
		return nil, err
	}

	var reads, hits, misses []float64
	var hitCount int
	for i := range in.Timed {
		out.attempted++
		if skipped[i] || errs[i] != nil || resps[i].failed() {
			out.failed++
			continue
		}
		l := ms(lat[i])
		reads = append(reads, l)
		// The heavy class is the goal path: a miss on /v1/accumulated runs
		// the cheap simple-path enumeration instead.
		switch {
		case resps[i].hit:
			hitCount++
			hits = append(hits, l)
		case in.Timed[i].Kind != kAccumulated:
			misses = append(misses, l)
		}
		if e.trace != nil && i%3 == 0 {
			rl.observe(resps[i], replays[i])
		}
	}
	out.light, out.heavy = hits, misses
	out.detail.lat("read", reads, tailPct(len(reads)))
	out.detail.lat("read_hit", hits, 0)
	out.detail.lat("read_goal_miss", misses, 0)
	out.detail.set("read_hit_frac", ratio(float64(hitCount), float64(len(reads))), "ratio")
	out.detail.set("rate_per_s", pointRate, "1/s")
	if e.trace != nil {
		rl.fill(out.layers, e.trace)
		out.layers.setMedianMs("bench.gen_late_ms", late)
		out.layers.set("bench.trace_overhead_us", us(e.trace.overheadPerOp()), "us")
	}

	// Output check: the first reads of each kind, hits and misses alike,
	// against direct evaluation on the same (never written) view.
	kept := map[string]int{}
	for i, op := range in.Timed {
		if errs[i] != nil || resps[i].failed() || kept[op.Kind] >= 5 {
			continue
		}
		kept[op.Kind]++
		s := readSample{kind: op.Kind, from: op.From, to: op.To, seq: seqOf(resps[i].body), body: resps[i].body}
		out.check(s.seq == 0, "%s(%d, %d) served at seq %d, the store is at 0", s.kind, s.from, s.to, s.seq)
		if err := checkRead(context.Background(), view, s); err != nil {
			out.check(false, "%v", err)
		}
	}
	out.check(len(kept) == 4, "only %d read kinds answered", len(kept))
	return out, nil
}
