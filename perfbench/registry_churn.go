package main

// registry_churn: writes beside reads. A leader store over 2,000 companies
// takes an open-loop stream of registry changes (setShare, addShare within
// the 100% incoming cap, removeEdge), each acknowledged by Store.Sync, and
// ships its WAL to a follower that serves reads through a follower-mode
// server. One closed-loop client reads from the follower: 90% point reads on
// recently written companies, 10% what-ifs at the default threshold. Every
// write moves the derived relations, so the result cache is invalidated
// rather than hit, and the load lands on WAL fsync, frame ship and apply, the
// follower's apply lock, incremental maintenance and goal misses.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vadalink/internal/persist"
	"vadalink/internal/pg"
	"vadalink/internal/reasonapi"
	"vadalink/internal/replication"
	"vadalink/internal/whatif"
)

// applyWrite applies one registry change to a graph — the leader's, or a
// private copy being brought to the same sequence number.
func applyWrite(g *pg.Graph, w writeOp) error {
	switch w.Kind {
	case "setShare":
		return g.SetEdgeWeight(w.Edge, w.W)
	case "addShare":
		id, err := g.AddShare(w.From, w.To, w.W)
		if err == nil && id != w.Edge {
			err = fmt.Errorf("addShare created edge %d, the generator predicted %d", id, w.Edge)
		}
		return err
	default:
		if !g.RemoveEdge(w.Edge) {
			return fmt.Errorf("removeEdge: no edge %d", w.Edge)
		}
		return nil
	}
}

// appliedAt records when the follower applied each sequence number past
// seq0; it is fed from the follower's mutation observer.
type appliedAt struct {
	mu   sync.Mutex
	seq0 int64
	at   []time.Time
}

func (a *appliedAt) note(seq int64) {
	now := time.Now()
	i := seq - a.seq0 - 1
	if i < 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for int64(len(a.at)) <= i {
		a.at = append(a.at, time.Time{})
	}
	if a.at[i].IsZero() {
		a.at[i] = now
	}
}

func (a *appliedAt) get(seq int64) time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i := seq - a.seq0 - 1; i >= 0 && i < int64(len(a.at)) {
		return a.at[i]
	}
	return time.Time{}
}

// churnRig is a leader store with its replication stream and a follower
// behind a follower-mode server.
type churnRig struct {
	leader    *persist.Store
	fl        *replication.Follower
	ts        *httptest.Server
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	applied   *appliedAt
	snapshot  time.Duration
	bootstrap time.Duration
}

func startChurn(g *pg.Graph, dir string, prewarm []whatif.Op) (_ *churnRig, err error) {
	r := &churnRig{}
	if r.leader, err = persist.Open(filepath.Join(dir, "leader"), persist.Options{SyncEvery: syncEvery}); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := r.leader.Import(g); err != nil {
		r.leader.Close()
		return nil, err
	}
	r.snapshot = time.Since(t0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.leader.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	ld := replication.NewLeader(r.leader, replication.LeaderOptions{})
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = ld.Serve(ctx, ln) // returns when ctx ends
	}()
	defer func() {
		if err != nil {
			r.stop()
		}
	}()
	if r.fl, err = replication.OpenFollower(filepath.Join(dir, "follower"),
		replication.FollowerOptions{Leader: ln.Addr().String(), SyncEvery: syncEvery}); err != nil {
		return r, err
	}
	r.applied = &appliedAt{seq0: r.leader.Seq()}
	r.fl.OnMutation(func(pg.Mutation) { r.applied.note(r.fl.Seq()) })
	// The server wires its apply lock into the follower, so it must exist
	// before Run starts applying frames.
	srv := reasonapi.NewServerWith(nil, reasonapi.Config{Follower: r.fl, Persist: r.fl.Store()})
	r.ts = httptest.NewServer(srv.Handler())
	t1 := time.Now()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = r.fl.Run(ctx) // returns ctx.Err()
	}()
	for r.fl.Status().Bootstraps == 0 {
		if time.Since(t1) > time.Minute {
			return r, fmt.Errorf("follower did not bootstrap within a minute")
		}
		time.Sleep(time.Millisecond)
	}
	r.bootstrap = time.Since(t1)

	// Set-up ends at the first fresh follower read: a bootstrapped follower
	// answers stale_replica until its first heartbeat. The what-if then
	// warms the follower's maintained baseline.
	c := newClient(r.ts.URL, 1)
	defer c.close()
	for {
		resp, err := c.do(http.MethodGet, "/v1/stats", nil)
		if err != nil {
			return r, err
		}
		if resp.status == http.StatusOK {
			break
		}
		if time.Since(t1) > time.Minute {
			return r, fmt.Errorf("follower not fresh within a minute: %d %s", resp.status, resp.body)
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := postWhatif(c, prewarm, 0)
	if err != nil {
		return r, err
	}
	if resp.failed() {
		return r, fmt.Errorf("pre-warm what-if: status %d: %s", resp.status, resp.body)
	}
	return r, nil
}

func (r *churnRig) stop() error {
	if r.ts != nil {
		r.ts.Close()
	}
	r.cancel()
	r.wg.Wait()
	var err error
	if r.fl != nil {
		err = r.fl.Close()
	}
	if lerr := r.leader.Close(); err == nil {
		err = lerr
	}
	return err
}

func runRegistryChurn(e env) (*outcome, error) {
	in := genChurn(e.seed, e.d)
	rig, setups, err := setUp(func(i int) (*churnRig, error) {
		return startChurn(in.Graph.Clone(), filepath.Join(e.dir, fmt.Sprint("rig", i)), in.Prewarm)
	}, (*churnRig).stop)
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	out := &outcome{setups: setups, detail: report{}, layers: newLayers()}
	c := newClient(rig.ts.URL, 1)
	defer c.close()
	ctx := context.Background()

	// The traced replay runs on a private copy of the leader graph brought
	// to each response's sequence number, and scoped what-ifs replay against
	// a baseline of the initial graph (their cost, not their answer, is what
	// the replay measures).
	var mirror *pg.Graph
	var mirrorAt int
	var traceBL *whatif.Baseline
	var wl whatifLayers
	rl := newReadLayers()
	if e.trace != nil {
		mirror = in.Graph.Clone()
		if traceBL, err = wl.replayBaseline(e.trace, mirror, whatif.DefaultThreshold); err != nil {
			return nil, err
		}
	}
	advance := func(n int) error {
		for ; mirrorAt < n && mirrorAt < len(in.Writes); mirrorAt++ {
			if err := applyWrite(mirror, in.Writes[mirrorAt]); err != nil {
				return err
			}
		}
		return nil
	}

	m0, err := serverMetrics(c)
	if err != nil {
		return nil, err
	}
	ps0, fs0 := rig.leader.Stats(), rig.fl.Status()
	seq0 := rig.leader.Seq()
	var acked atomic.Int64
	ackAt := make([]time.Time, len(in.Writes))
	ackSeq := make([]int64, len(in.Writes))
	writeErrs := make([]error, len(in.Writes))
	var lagMax int64
	due := make([]time.Duration, len(in.Writes))
	for i, w := range in.Writes {
		due[i] = w.Due
	}

	probe := startRuntimeProbe()
	start := time.Now()
	var writeLat, late []time.Duration
	var skipped []bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		g := rig.leader.Graph()
		writeLat, late, skipped = openLoop(ctx, due, 1, requestTimeout, func(i int) {
			o := e.trace.op("write")
			o.do("pg.mutate", func() { writeErrs[i] = applyWrite(g, in.Writes[i]) })
			o.do("persist.sync", func() {
				if err := rig.leader.Sync(); writeErrs[i] == nil {
					writeErrs[i] = err
				}
			})
			o.finish()
			ackAt[i], ackSeq[i] = time.Now(), rig.leader.Seq()
			acked.Store(int64(i + 1))
			if e.trace != nil {
				lagMax = max(lagMax, ackSeq[i]-rig.fl.Status().Seq)
			}
		})
	}()

	var reads, whatifs []float64
	var samples []readSample
	var replayErr error // a broken replay stops the reader; the writer still runs out
	for i := 0; i < len(in.Reader) && time.Since(start) < e.d && replayErr == nil; i++ {
		op := in.Reader[i]
		out.attempted++
		if op.Kind == "whatif" {
			resp, err := postWhatif(c, op.Scenario, 0)
			if err != nil || resp.failed() {
				out.failed++
				continue
			}
			whatifs = append(whatifs, ms(resp.took))
			if e.trace != nil {
				if replayErr = advance(int(rig.fl.Seq() - seq0)); replayErr != nil {
					continue
				}
				wl.replayScoped(e.trace, mirror, traceBL, op.Scenario, whatif.DefaultThreshold)
				var m reasonapi.Metrics
				if m, replayErr = serverMetrics(c); replayErr != nil {
					continue
				}
				if st := m.Incremental; st != nil && st.LastApplyMillis > 0 {
					wl.ivmApply = append(wl.ivmApply, st.LastApplyMillis)
					wl.ivmAffected = append(wl.ivmAffected, float64(st.LastAffectedSources))
				}
			}
			continue
		}
		j := int(acked.Load()) - 1 - op.Back
		if j < 0 {
			j = 0
		}
		w := in.Writes[j]
		resp, err := doRead(c, op.Kind, w.From, w.To)
		if err != nil || resp.failed() {
			out.failed++
			continue
		}
		reads = append(reads, ms(resp.took))
		if len(reads)%25 == 1 {
			samples = append(samples, readSample{kind: op.Kind, from: w.From, to: w.To, seq: seqOf(resp.body), body: resp.body})
		}
		if e.trace != nil {
			if replayErr = advance(int(seqOf(resp.body) - uint64(seq0))); replayErr != nil {
				continue
			}
			o := e.trace.op("read." + op.Kind)
			rl.observe(resp, rl.replayRead(o, mirror, op.Kind, w.From, w.To, resp))
			o.finish()
		}
	}
	<-done
	if replayErr != nil {
		return nil, replayErr
	}
	probe.finish(out.detail, out.layers, int(acked.Load())+out.attempted)

	// Writes count as attempted operations; each one's ack latency runs from
	// its due time, its visibility lag from its ack to the follower applying
	// its sequence number.
	if err := waitParity(rig, 30*time.Second); err != nil {
		return nil, err
	}
	var acks, lags []float64
	for i := range in.Writes {
		out.attempted++
		if skipped[i] || writeErrs[i] != nil {
			out.failed++
			continue
		}
		acks = append(acks, ms(writeLat[i]))
		lag := rig.applied.get(ackSeq[i]).Sub(ackAt[i])
		lags = append(lags, ms(max(lag, 0)))
	}
	out.light, out.heavy = reads, whatifs
	out.detail.lat("read", reads, tailPct(len(reads)))
	out.detail.lat("write_ack", acks, tailPct(len(acks)))
	out.detail.lat("visible_lag", lags, tailPct(len(lags)))
	out.detail.lat("whatif", whatifs, tailPct(len(whatifs)))
	out.detail.set("write_rate_per_s", writeRate, "1/s")

	m1, err := serverMetrics(c)
	if err != nil {
		return nil, err
	}
	out.check(m1.Cache != nil && m1.Cache.Evictions == 0, "the result cache evicted entries")
	ps1, fs1 := rig.leader.Stats(), rig.fl.Status()
	writes := float64(len(acks))
	if e.trace != nil {
		rl.fill(out.layers, e.trace)
		wl.fill(out.layers, e.trace)
		out.layers.setMedianMs("persist.sync_ms", e.trace.selfTimes()["persist.sync"])
		out.layers.set("persist.fsyncs_per_write", ratio(float64(ps1.WALSyncs-ps0.WALSyncs), writes), "count")
		out.layers.set("persist.wal_bytes_per_write", ratio(float64(ps1.WALBytes-ps0.WALBytes), writes), "bytes")
		out.layers.set("persist.snapshot_ms", ms(rig.snapshot), "ms")
		out.layers.set("replication.frames_applied", float64(fs1.FramesApplied-fs0.FramesApplied), "count")
		out.layers.set("replication.lag_records_max", float64(lagMax), "count")
		out.layers.set("replication.bootstrap_ms", ms(rig.bootstrap), "ms")
		if m0.Cache != nil && m1.Cache != nil {
			out.layers.set("qcache.invalidations_per_write", ratio(float64(m1.Cache.Invalidations-m0.Cache.Invalidations), writes), "count")
		}
		if m0.Incremental != nil && m1.Incremental != nil {
			out.layers.set("ivm.incremental_commits", float64(m1.Incremental.IncrementalCommits-m0.Incremental.IncrementalCommits), "count")
			out.layers.set("ivm.full_rebuilds", float64(m1.Incremental.FullRebuilds-m0.Incremental.FullRebuilds), "count")
		}
		out.layers.setMedianMs("bench.gen_late_ms", late)
		out.layers.set("bench.trace_overhead_us", us(e.trace.overheadPerOp()), "us")
	}

	checkChurn(ctx, out, rig, c, in, samples, seq0)
	return out, nil
}

// waitParity waits until the follower has applied everything the leader
// acknowledged.
func waitParity(r *churnRig, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for r.fl.Seq() < r.leader.Seq() {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at seq %d, leader at %d after %s", r.fl.Seq(), r.leader.Seq(), limit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// checkChurn runs registry_churn's output checks once both loops stopped:
// the follower's graph equals the leader's; its maintained baseline matches
// a fresh chase on every cone the writes touched (a no-op scenario over
// those edges must change nothing) and, for the pre-warm scenario, the
// unscoped evaluation over a fresh whatif.ComputeBaseline of the final
// leader graph; and the kept reads match direct evaluation at their
// sequence numbers.
func checkChurn(ctx context.Context, out *outcome, rig *churnRig, c *client, in *churnInputs, samples []readSample, seq0 int64) {
	lg, fg := rig.leader.Graph(), rig.fl.Graph()
	out.check(sameGraph(lg, fg), "follower graph differs from the leader's at seq %d", lg.NextEdgeID())

	var noop []whatif.Op
	seen := map[pg.EdgeID]bool{}
	for _, w := range in.Writes {
		if e := lg.Edge(w.Edge); e != nil && !seen[w.Edge] {
			seen[w.Edge] = true
			noop = append(noop, whatif.Op{Op: "setShare", Edge: w.Edge, W: weight(e)})
		}
	}
	if len(noop) > 0 {
		resp, err := postWhatif(c, noop, 0)
		switch {
		case err != nil:
			out.check(false, "no-op what-if: %v", err)
		case resp.failed():
			out.check(false, "no-op what-if: status %d: %s", resp.status, resp.body)
		default:
			d, err := decodeDiff(resp.body)
			out.check(err == nil && d.empty(), "no-op what-if over %d written edges changed the maintained baseline: %s", len(noop), resp.body)
		}
	}

	resp, err := postWhatif(c, in.Prewarm, 0)
	if err != nil || resp.failed() {
		out.check(false, "final what-if failed: %v %s", err, resp.body)
	} else if got, err := decodeDiff(resp.body); err != nil {
		out.check(false, "%v", err)
	} else if want, err := referenceDiff(ctx, lg, in.Prewarm, whatif.DefaultThreshold); err != nil {
		out.check(false, "reference what-if: %v", err)
	} else {
		out.check(got.equal(want), "follower what-if %+v, unscoped chase on the leader graph %+v", got, want)
	}

	sort.Slice(samples, func(i, j int) bool { return samples[i].seq < samples[j].seq })
	g := in.Graph.Clone()
	at := 0
	for _, s := range samples {
		for ; at < int(int64(s.seq)-seq0) && at < len(in.Writes); at++ {
			if err := applyWrite(g, in.Writes[at]); err != nil {
				out.check(false, "replaying writes: %v", err)
				return
			}
		}
		if err := checkRead(ctx, g, s); err != nil {
			out.check(false, "%v", err)
		}
	}
	out.check(len(samples) > 0, "no follower read answered")
}

// sameGraph reports whether two graphs hold the same nodes and edges with
// the same labels, endpoints and weights.
func sameGraph(a, b *pg.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for _, id := range a.Nodes() {
		if n := b.Node(id); n == nil || n.Label != a.Node(id).Label {
			return false
		}
	}
	for _, id := range a.Edges() {
		x, y := a.Edge(id), b.Edge(id)
		if y == nil || x.Label != y.Label || x.From != y.From || x.To != y.To || weight(x) != weight(y) {
			return false
		}
	}
	return true
}
