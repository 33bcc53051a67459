package reasonapi

// Coverage of the per-version relational image (image.go): every goal
// endpoint answering over the shared image agrees with a goal evaluation
// over a fresh extraction of the same version, along a chain of commits on
// randomized cyclic ownership graphs; concurrent misses at one version
// build the image once; and an answer computed over a version that an
// invalidation replaced after the pin stays out of the result cache.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"vadalink/internal/control"
	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/qcache"
	"vadalink/internal/store"
	"vadalink/internal/vadalog"
)

// randomCyclicGraph builds a small ownership graph whose company-to-company
// stakes form cycles; every company's incoming stakes sum to at most 1.
func randomCyclicGraph(rng *rand.Rand) *pg.Graph {
	g := pg.New()
	nc, np := 5+rng.Intn(6), 2+rng.Intn(3)
	var companies, all []pg.NodeID
	for i := 0; i < nc; i++ {
		id := g.AddNode(pg.LabelCompany, pg.Properties{"name": fmt.Sprintf("C%d", i)})
		companies = append(companies, id)
		all = append(all, id)
	}
	for i := 0; i < np; i++ {
		all = append(all, g.AddNode(pg.LabelPerson, pg.Properties{"name": fmt.Sprintf("P%d", i)}))
	}
	for i, c := range companies {
		// A ring stake keeps at least one cycle through every company.
		left := 1.0
		ring := companies[(i+1)%nc]
		w := 0.1 + 0.5*rng.Float64()
		g.MustAddEdgeWeighted(ring, c, w)
		left -= w
		for k := rng.Intn(3); k > 0 && left > 0.05; k-- {
			from := all[rng.Intn(len(all))]
			if from == c {
				continue
			}
			w := left * rng.Float64()
			g.MustAddEdgeWeighted(from, c, w)
			left -= w
		}
	}
	return g
}

// mutate commits one random change — a re-weighted, removed or added stake —
// on the server's version chain and returns the new version.
func mutate(t *testing.T, s *Server, rng *rand.Rand) *store.Version {
	t.Helper()
	txn := s.vs.Begin()
	o := txn.Overlay()
	shares := o.EdgesWithLabel(pg.LabelShareholding)
	e := o.Edge(shares[rng.Intn(len(shares))])
	switch rng.Intn(3) {
	case 0:
		if err := o.SetEdgeWeight(e.ID, 0.9*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	case 1:
		o.RemoveEdge(e.ID)
	default:
		// Hand the stake to another holder: incoming totals stay put.
		nodes := o.Nodes()
		from := nodes[rng.Intn(len(nodes))]
		w, _ := e.Weight()
		o.RemoveEdge(e.ID)
		if from != e.To {
			if _, err := o.AddShare(from, e.To, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	ver, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return ver
}

// getBody issues a GET or POST and decodes the JSON response.
func getBody(t *testing.T, method, url, body string) map[string]any {
	t.Helper()
	resp, out := doReq(t, method, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s = %d %v", method, url, resp.StatusCode, out)
	}
	return out
}

// ids decodes a JSON list of {"id": n} items.
func ids(t *testing.T, v any) []pg.NodeID {
	t.Helper()
	out := []pg.NodeID{}
	for _, it := range v.([]any) {
		out = append(out, pg.NodeID(it.(map[string]any)["id"].(float64)))
	}
	return out
}

// jsonRoundTrip normalizes a value to what the API would have sent.
func jsonRoundTrip(t *testing.T, v any) any {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestImageGoalEndpointsMatchFreshExtraction is the differential harness
// of the shared image: at every version of a commit chain, the control
// pair, control list, ubo, explain and query endpoints answer exactly what
// a goal evaluation over a fresh extraction of that version answers.
func TestImageGoalEndpointsMatchFreshExtraction(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewServerWith(randomCyclicGraph(rng), Config{})
		srv := httptest.NewServer(s.Handler())
		opts := s.engineOptions()
		ver := s.vs.Current()
		for step := 0; step < 4; step++ {
			v := ver.View()
			var nodes []pg.NodeID
			for _, id := range v.Nodes() {
				nodes = append(nodes, id)
			}
			for q := 0; q < 3; q++ {
				x, y := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
				where := fmt.Sprintf("seed %d step %d (%d, %d)", seed, step, x, y)

				pair := getBody(t, "GET", fmt.Sprintf("%s/v1/control?node=%d&target=%d", srv.URL, x, y), "")
				want, _, err := control.GoalControlsPair(ctx, v, x, y, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if pair["controls"] != want || pair["seq"] != float64(ver.Seq()) {
					t.Fatalf("%s: /v1/control pair = %v at seq %v, fresh extraction says %v at %d",
						where, pair["controls"], pair["seq"], want, ver.Seq())
				}
				explain := getBody(t, "GET", fmt.Sprintf("%s/v1/explain?from=%d&to=%d", srv.URL, x, y), "")
				if explain["controls"] != want {
					t.Fatalf("%s: /v1/explain controls = %v, want %v", where, explain["controls"], want)
				}

				list := getBody(t, "GET", fmt.Sprintf("%s/v1/control?node=%d", srv.URL, x), "")
				wantList, _, err := control.GoalControls(ctx, v, x, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if got := ids(t, list["controls"]); !reflect.DeepEqual(got, append([]pg.NodeID{}, wantList...)) {
					t.Fatalf("%s: /v1/control list = %v, want %v", where, got, wantList)
				}

				ubo := getBody(t, "GET", fmt.Sprintf("%s/v1/ubo?node=%d", srv.URL, y), "")
				wantUBO, _, err := control.GoalUltimateControllers(ctx, v, y, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if got := ids(t, ubo["ultimateControllers"]); !reflect.DeepEqual(got, append([]pg.NodeID{}, wantUBO...)) {
					t.Fatalf("%s: /v1/ubo = %v, want %v", where, got, wantUBO)
				}

				goal := datalog.Atom{Pred: "accown", Terms: []datalog.Term{datalog.Int(int64(x)), datalog.Variable("Y"), datalog.Variable("W")}}
				query := getBody(t, "POST", srv.URL+"/v1/query", fmt.Sprintf(`{"goal": %q}`, goal.String()))
				res, err := vadalog.EvalGoal(ctx, v, vadalog.CloseLinkProgram, goal, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if want := jsonRoundTrip(t, answerRows(res.Answers)); !reflect.DeepEqual(query["answers"], want) {
					t.Fatalf("%s: /v1/query %s = %v, want %v", where, goal, query["answers"], want)
				}
			}
			ver = mutate(t, s, rng)
		}
		srv.Close()
	}
}

// TestImageBuiltOncePerVersion fires concurrent misses with distinct keys
// at one version: they share one image build. A commit makes the next miss
// build again, and a request still holding the older version builds a
// private image instead of evicting the current one.
func TestImageBuiltOncePerVersion(t *testing.T) {
	g := randomCyclicGraph(rand.New(rand.NewSource(9)))
	s := NewServerWith(g, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	nodes := g.Nodes()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x, y := nodes[i%len(nodes)], nodes[(i+3)%len(nodes)]
			resp, err := http.Get(fmt.Sprintf("%s/v1/control?node=%d&target=%d", srv.URL, x, y))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	st := s.imageStats()
	if st.Builds != 1 || st.PrivateBuilds != 0 {
		t.Fatalf("8 concurrent misses at one version: builds = %d (private %d), want 1", st.Builds, st.PrivateBuilds)
	}
	if st.Facts == 0 || st.Seq != s.vs.Current().Seq() {
		t.Fatalf("image stats = %+v, want the current version's facts", st)
	}

	old := s.vs.Current()
	mutate(t, s, rand.New(rand.NewSource(1)))
	getBody(t, "GET", fmt.Sprintf("%s/v1/ubo?node=%d", srv.URL, nodes[0]), "")
	if st := s.imageStats(); st.Builds != 2 || st.Seq != s.vs.Current().Seq() {
		t.Fatalf("after a commit: stats = %+v, want a second build for seq %d", st, s.vs.Current().Seq())
	}
	if s.image(old) == s.image(s.vs.Current()) {
		t.Fatal("an older pinned version was served the current image")
	}
	if st := s.imageStats(); st.Builds != 3 || st.PrivateBuilds != 1 || st.Seq != s.vs.Current().Seq() {
		t.Fatalf("after an old-version read: stats = %+v, want one private build and the slot kept", st)
	}

	var m Metrics
	if code := getJSON(t, srv.URL+"/v1/metrics", &m); code != http.StatusOK || m.Image == nil || m.Image.Builds != 3 {
		t.Fatalf("/v1/metrics image = %+v (status %d), want builds 3", m.Image, code)
	}
}

// TestPointAnswerRacedByFlushIsNotCached pins the reset race: a flush (a
// replica's new root) landing between a read's pin and its computation must
// keep the computed answer out of the cache.
func TestPointAnswerRacedByFlushIsNotCached(t *testing.T) {
	s := NewServerWith(randomCyclicGraph(rand.New(rand.NewSource(4))), Config{})
	p := s.pin()
	s.qc.Flush()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/ubo", nil)
	s.servePoint(rec, req, p, "ubo:test", qcache.ClassDerived, func() (map[string]any, error) {
		return map[string]any{"ok": true}, nil
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("servePoint = %d", rec.Code)
	}
	if st := s.qc.Stats(); st.Entries != 0 {
		t.Fatalf("an answer raced by a flush was cached: %+v", st)
	}
	// Without the race the same answer is stored.
	s.servePoint(httptest.NewRecorder(), req, s.pin(), "ubo:test", qcache.ClassDerived, func() (map[string]any, error) {
		return map[string]any{"ok": true}, nil
	})
	if st := s.qc.Stats(); st.Entries != 1 {
		t.Fatalf("an unraced answer was not cached: %+v", st)
	}
}

// TestReasonDerivingOwnLeavesImageIntact: a /v1/reason program with an own
// head derives into a private copy of the relation; goal reads at the same
// version still see the graph's own facts and nothing more.
func TestReasonDerivingOwnLeavesImageIntact(t *testing.T) {
	g := randomCyclicGraph(rand.New(rand.NewSource(11)))
	s := NewServerWith(g, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	query := `{"goal": "own(X, Y, W)"}`
	stored := getBody(t, "POST", srv.URL+"/v1/query", query)["count"].(float64)
	reason := getBody(t, "POST", srv.URL+"/v1/reason", `{"program": "own(X, Y, W) -> own(Y, X, W)."}`)
	if got := len(reason["facts"].(map[string]any)["own"].([]any)); float64(got) <= stored {
		t.Fatalf("/v1/reason derived %d own facts, want the %v stored plus their mirrors", got, stored)
	}
	s.qc.Flush()
	if n := getBody(t, "POST", srv.URL+"/v1/query", query)["count"]; n != stored {
		t.Fatalf("own facts after /v1/reason = %v, want %v: the shared image was written", n, stored)
	}
	if st := s.imageStats(); st.Builds != 1 {
		t.Fatalf("image builds = %d, want one for the single version", st.Builds)
	}
}
