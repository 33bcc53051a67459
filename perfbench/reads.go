package main

// Point reads shared by point_reads and registry_churn: the HTTP request of
// each read kind, the direct-evaluation check of its answer, and the traced
// replay of the layer calls its handler makes.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"vadalink/internal/closelink"
	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/qcache"
	"vadalink/internal/relstore"
	"vadalink/internal/vadalog"
	"vadalink/internal/whatif"
)

// engineOpts mirrors the server's chase configuration, so replays and
// checks derive exactly what the handlers derive.
func engineOpts() []datalog.Option {
	return []datalog.Option{datalog.WithMinAggDelta(whatif.DefaultMinAggDelta), datalog.WithStats()}
}

func readRequest(kind string, from, to pg.NodeID) (method, path string, body []byte) {
	switch kind {
	case kControl:
		return http.MethodGet, fmt.Sprintf("/v1/control?node=%d&target=%d", from, to), nil
	case kUBO:
		return http.MethodGet, fmt.Sprintf("/v1/ubo?node=%d", to), nil
	case kAccumulated:
		return http.MethodGet, fmt.Sprintf("/v1/accumulated?from=%d&to=%d", from, to), nil
	default:
		return http.MethodPost, "/v1/query", []byte(fmt.Sprintf(`{"goal":"control(%d, Y)"}`, from))
	}
}

func doRead(c *client, kind string, from, to pg.NodeID) (response, error) {
	method, path, body := readRequest(kind, from, to)
	return c.do(method, path, body)
}

// cacheKey is the server's result-cache key of a read, for the replayed
// cache hit.
func cacheKey(kind string, from, to pg.NodeID) string {
	switch kind {
	case kControl:
		return fmt.Sprintf("control:%d:%d", from, to)
	case kUBO:
		return fmt.Sprintf("ubo:%d", to)
	case kAccumulated:
		return fmt.Sprintf("accumulated:%d:%d", from, to)
	default:
		return fmt.Sprintf("query:control(%d, Y)", from)
	}
}

// goalOf is the goal atom a read kind evaluates (accumulated has none: its
// handler runs the simple-path enumeration of closelink).
func goalOf(kind string, from, to pg.NodeID) datalog.Atom {
	x, y := datalog.Term(datalog.Int(int64(from))), datalog.Term(datalog.Int(int64(to)))
	switch kind {
	case kControl:
		return datalog.Atom{Pred: "control", Terms: []datalog.Term{x, y}}
	case kUBO:
		return datalog.Atom{Pred: "control", Terms: []datalog.Term{datalog.Variable("X"), y}}
	default:
		return datalog.Atom{Pred: "control", Terms: []datalog.Term{x, datalog.Variable("Y")}}
	}
}

// expectedAnswer evaluates a read directly on a view — vadalog.EvalGoal for
// the goal kinds, closelink.AccumulatedCtx for accumulated — and renders it
// in the response's terms: a bool, a sorted ID list, or Φ.
func expectedAnswer(ctx context.Context, v pg.View, kind string, from, to pg.NodeID) (any, error) {
	if kind == kAccumulated {
		return closelink.AccumulatedCtx(ctx, v, from, to, closelink.Options{})
	}
	res, err := vadalog.EvalGoal(ctx, v, vadalog.ControlProgram, goalOf(kind, from, to), engineOpts()...)
	if err != nil {
		return nil, err
	}
	if res.RunErr != nil {
		return nil, res.RunErr
	}
	if kind == kControl {
		return len(res.Answers) > 0, nil
	}
	v2 := datalog.Variable("Y")
	if kind == kUBO {
		v2 = "X"
	}
	var ids []int64
	for _, b := range res.Answers {
		id, _ := b[v2].(int64)
		if kind == kUBO && v.Node(pg.NodeID(id)).Label != pg.LabelPerson {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// servedAnswer extracts the same rendering from a response body.
func servedAnswer(kind string, body []byte) (any, error) {
	var r struct {
		Controls   *bool    `json:"controls"`
		Phi        *float64 `json:"phi"`
		Controller []struct {
			ID int64 `json:"id"`
		} `json:"ultimateControllers"`
		Answers []map[string]int64 `json:"answers"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding %s answer: %w", kind, err)
	}
	switch kind {
	case kControl:
		if r.Controls == nil {
			return nil, fmt.Errorf("control answer without \"controls\"")
		}
		return *r.Controls, nil
	case kAccumulated:
		if r.Phi == nil {
			return nil, fmt.Errorf("accumulated answer without \"phi\"")
		}
		return *r.Phi, nil
	}
	var ids []int64
	if kind == kUBO {
		for _, c := range r.Controller {
			ids = append(ids, c.ID)
		}
	} else {
		for _, a := range r.Answers {
			ids = append(ids, a["Y"])
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// sameAnswer compares a served and an expected answer.
func sameAnswer(a, b any) bool {
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && (x-y < 1e-9 && y-x < 1e-9)
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// readSample is a served read kept for the output check.
type readSample struct {
	kind     string
	from, to pg.NodeID
	seq      uint64
	body     []byte
}

func seqOf(body []byte) uint64 {
	var r struct {
		Seq uint64 `json:"seq"`
	}
	_ = json.Unmarshal(body, &r) // a body without seq reads as 0 and fails its check
	return r.Seq
}

// checkRead compares one kept read against direct evaluation on v.
func checkRead(ctx context.Context, v pg.View, s readSample) error {
	want, err := expectedAnswer(ctx, v, s.kind, s.from, s.to)
	if err != nil {
		return fmt.Errorf("evaluating %s(%d, %d): %w", s.kind, s.from, s.to, err)
	}
	got, err := servedAnswer(s.kind, s.body)
	if err != nil {
		return err
	}
	if !sameAnswer(got, want) {
		return fmt.Errorf("%s(%d, %d) at seq %d: served %v, direct evaluation %v", s.kind, s.from, s.to, s.seq, got, want)
	}
	return nil
}

// readLayers accumulates the traced replay of point reads.
// Its methods may run on several client goroutines at once.
type readLayers struct {
	mu               sync.Mutex
	hitRTT, self     []time.Duration
	doHit            []time.Duration
	derivedPerAnswer []float64
	hits, reads      int
	cache            *qcache.Cache
}

func newReadLayers() *readLayers { return &readLayers{cache: qcache.New(0)} }

// replayRead re-runs the layer calls a read's handler makes, each in its own
// span: a hit replays the result-cache lookup; a miss replays parse, fact
// extraction, magic rewrite, EDB load, chase and query (or the simple-path
// enumeration behind /v1/accumulated). It returns the replay's total time.
func (l *readLayers) replayRead(o *opTrace, v pg.View, kind string, from, to pg.NodeID, resp response) time.Duration {
	start := time.Now()
	if resp.hit {
		key := cacheKey(kind, from, to)
		l.cache.Put(key, qcache.ClassDerived, 1, resp.body)
		t0 := time.Now()
		o.do("qcache.do", func() {
			_, _, _, _ = l.cache.Do(key, qcache.ClassDerived, 1, func() ([]byte, error) { return resp.body, nil })
		})
		d := time.Since(t0)
		l.mu.Lock()
		l.doHit = append(l.doHit, d)
		l.mu.Unlock()
		return time.Since(start)
	}
	ctx := context.Background()
	if kind == kAccumulated {
		o.do("closelink.accumulated", func() { _, _ = closelink.AccumulatedCtx(ctx, v, from, to, closelink.Options{}) })
		return time.Since(start)
	}
	var (
		prog  *datalog.Program
		facts []datalog.Fact
		e     *datalog.Engine
		err   error
		ans   []datalog.Binding
	)
	goal := goalOf(kind, from, to)
	o.do("datalog.parse", func() { prog, err = datalog.Parse(vadalog.ControlProgram) })
	if err != nil {
		return time.Since(start)
	}
	o.do("relstore.extract", func() { facts = relstore.CompanyGraphFacts(v) })
	o.do("datalog.magic_rewrite", func() { e, err = datalog.NewGoalEngine(prog, goal, engineOpts()...) })
	if err != nil {
		return time.Since(start)
	}
	o.do("datalog.assert", func() { e.AssertAll(facts) })
	o.do("datalog.goal_chase", func() { _ = e.RunContext(ctx) })
	o.do("datalog.query", func() { ans = e.Query(goal) })
	if len(ans) > 0 {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.derivedPerAnswer = append(l.derivedPerAnswer, float64(e.DerivedCount())/float64(len(ans)))
	}
	return time.Since(start)
}

// observe records one traced read: the untraced HTTP round trip and, for a
// miss, its part not covered by the replayed layer calls.
func (l *readLayers) observe(resp response, replay time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reads++
	if resp.hit {
		l.hits++
		l.hitRTT = append(l.hitRTT, resp.took)
		return
	}
	l.self = append(l.self, resp.took-replay)
}

// fill writes the read-path layer metrics.
func (l *readLayers) fill(layers report, tr *tracer) {
	layers.setMedianUs("reasonapi.hit_rtt_us", l.hitRTT)
	layers.setMedianUs("reasonapi.self_us", l.self)
	layers.set("qcache.hit_frac", ratio(float64(l.hits), float64(l.reads)), "ratio")
	layers.setMedianUs("qcache.do_hit_us", l.doHit)
	self := tr.selfTimes()
	layers.setMedianUs("datalog.parse_us", self["datalog.parse"])
	layers.setMedianMs("relstore.extract_ms", self["relstore.extract"])
	layers.setMedianUs("datalog.magic_rewrite_us", self["datalog.magic_rewrite"])
	layers.setMedianMs("datalog.assert_ms", self["datalog.assert"])
	layers.setMedianMs("datalog.goal_chase_ms", self["datalog.goal_chase"])
	layers["datalog.goal_derived_per_answer"] = metric{Value: median(l.derivedPerAnswer), Unit: "count", N: len(l.derivedPerAnswer)}
}
