package main

// The seeded generator: every input a run uses — graphs, schedules, keys,
// the registry change stream, the threshold sweep and the augment cadence —
// comes out of here before any timing starts. The same seed gives the same
// inputs (TestGeneratorDeterministic holds that down byte for byte).

import (
	"math"
	"math/rand"
	"time"

	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
	"vadalink/internal/whatif"
)

// Workload shapes. The record of why each value was chosen is in
// perfbench/README.md.
const (
	pointCompanies   = 10_000
	churnCompanies   = 2_000
	analystCompanies = 1_000

	// pointRate is the point_reads open-loop arrival rate (requests/s), a
	// little under half of what two closed-loop clients reach on two cores.
	pointRate = 10.0
	// pointWarmup is the number of untimed requests that fill the result
	// cache before the timed phase.
	pointWarmup = 150
	zipfS       = 1.1

	// writeRate is the registry_churn open-loop write rate (writes/s).
	writeRate = 20.0
	// recentMean is the mean recency offset (in writes) of a follower read.
	recentMean = 4

	whatifsPerBlock = 5
	augmentEvery    = 3 // blocks between augments
	augmentClusters = 8

	// syncEvery is the WAL group-commit interval of every store (the CLI
	// default).
	syncEvery = 2 * time.Millisecond
)

// sweep is the analyst close-link threshold ladder.
var sweep = []float64{0.1, 0.15, 0.2, 0.25, 0.3}

// Point read kinds and their share of the read mix.
const (
	kControl     = "control"     // GET /v1/control?node&target   60%
	kUBO         = "ubo"         // GET /v1/ubo?node              20%
	kAccumulated = "accumulated" // GET /v1/accumulated?from&to   10%
	kQuery       = "query"       // POST /v1/query control(x, Y)  10%
)

func readKind(r *rand.Rand) string {
	switch u := r.Float64(); {
	case u < 0.6:
		return kControl
	case u < 0.8:
		return kUBO
	case u < 0.9:
		return kAccumulated
	default:
		return kQuery
	}
}

// readOp is one point read on the pair (From, To) of a shareholding edge.
type readOp struct {
	Kind string        `json:"kind"`
	From pg.NodeID     `json:"from"`
	To   pg.NodeID     `json:"to"`
	Due  time.Duration `json:"due,omitempty"`
}

// writeOp is one registry change on the leader graph.
type writeOp struct {
	Kind string        `json:"kind"` // setShare, addShare, removeEdge
	Edge pg.EdgeID     `json:"edge,omitempty"`
	From pg.NodeID     `json:"from,omitempty"`
	To   pg.NodeID     `json:"to,omitempty"`
	W    float64       `json:"w,omitempty"`
	Due  time.Duration `json:"due"`
}

// followerOp is one request of the registry_churn reader. A read targets the
// edge of the write Back positions before the newest acknowledged one.
type followerOp struct {
	Kind     string      `json:"kind"` // a read kind or "whatif"
	Back     int         `json:"back,omitempty"`
	Scenario []whatif.Op `json:"scenario,omitempty"`
}

// jobOp is one request of the analyst session.
type jobOp struct {
	Kind      string      `json:"kind"` // whatif or augment
	Threshold float64     `json:"threshold,omitempty"`
	First     bool        `json:"first,omitempty"` // first what-if after a threshold switch
	Scenario  []whatif.Op `json:"scenario,omitempty"`
}

type pointInputs struct {
	Graph  *pg.Graph `json:"-"`
	Warmup []readOp  `json:"warmup"`
	Timed  []readOp  `json:"timed"`
}

type churnInputs struct {
	Graph   *pg.Graph    `json:"-"`
	Writes  []writeOp    `json:"writes"`
	Reader  []followerOp `json:"reader"`
	Prewarm []whatif.Op  `json:"prewarm"`
}

type analystInputs struct {
	Graph *pg.Graph `json:"-"`
	Jobs  []jobOp   `json:"jobs"`
}

// graphSeed fixes the graphs, as in the repository's other benchmarks:
// --seed varies every stream over them, while the graph structure, which
// decides the cost of a full chase, stays the same from run to run.
const graphSeed = 7

func genGraph(companies int) *pg.Graph {
	return graphgen.NewItalian(graphgen.ItalianConfig{Persons: companies / 2, Companies: companies, Seed: graphSeed}).Graph
}

// shareEdges returns the graph's shareholding edges in ID order.
func shareEdges(g *pg.Graph) []*pg.Edge {
	ids := g.EdgesWithLabel(pg.LabelShareholding)
	out := make([]*pg.Edge, len(ids))
	for i, id := range ids {
		out[i] = g.Edge(id)
	}
	return out
}

func weight(e *pg.Edge) float64 {
	w, _ := e.Weight()
	return w
}

func incoming(g pg.View, to pg.NodeID) float64 {
	t := 0.0
	for _, e := range g.InLabel(to, pg.LabelShareholding) {
		t += weight(e)
	}
	return t
}

// newShare draws a new weight for a shareholding edge that keeps the
// target's incoming shares within 100% (or, where generated data already
// exceeds it, does not raise them).
func newShare(r *rand.Rand, g pg.View, e *pg.Edge) float64 {
	hi := math.Min(1, weight(e)+1-incoming(g, e.To))
	if hi <= 0.01 {
		return weight(e) * (0.5 + r.Float64()/2)
	}
	return 0.01 + r.Float64()*(hi-0.01)
}

// poisson returns arrival offsets of a Poisson process at rate per second
// over [0, d).
func poisson(r *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

func genPoint(seed int64, d time.Duration) *pointInputs {
	g := genGraph(pointCompanies)
	r := rand.New(rand.NewSource(seed))
	edges := shareEdges(g)
	// Zipf ranks map onto a seeded permutation of the edges, so the hot keys
	// are not simply the oldest edges.
	perm := r.Perm(len(edges))
	z := rand.NewZipf(r, zipfS, 1, uint64(len(edges)-1))
	draw := func(due time.Duration) readOp {
		e := edges[perm[z.Uint64()]]
		return readOp{Kind: readKind(r), From: e.From, To: e.To, Due: due}
	}
	in := &pointInputs{Graph: g}
	for i := 0; i < pointWarmup; i++ {
		in.Warmup = append(in.Warmup, draw(0))
	}
	for _, due := range poisson(r, pointRate, d) {
		in.Timed = append(in.Timed, draw(due))
	}
	return in
}

func genChurn(seed int64, d time.Duration) *churnInputs {
	g := genGraph(churnCompanies)
	r := rand.New(rand.NewSource(seed))
	in := &churnInputs{Graph: g}

	// The change stream is simulated on a private copy so every op is valid
	// at the point it applies: edges exist, weights stay in (0, 1], and no
	// company's incoming shares exceed 100%. AddShare on the copy assigns
	// the same edge IDs the leader will.
	sim := g.Clone()
	live := shareEdges(sim)
	touched := map[pg.EdgeID]bool{}
	companies := sim.NodesWithLabel(pg.LabelCompany)
	nodes := sim.Nodes()
	for _, due := range poisson(r, writeRate, d) {
		var op writeOp
		switch u := r.Float64(); {
		case u < 0.5: // setShare
			e := live[r.Intn(len(live))]
			w := newShare(r, sim, e)
			if err := sim.SetEdgeWeight(e.ID, w); err != nil {
				panic(err)
			}
			op = writeOp{Kind: "setShare", Edge: e.ID, From: e.From, To: e.To, W: w}
			touched[e.ID] = true
		case u < 0.75: // addShare within the target's spare capacity
			var to pg.NodeID
			for {
				to = companies[r.Intn(len(companies))]
				if 1-incoming(sim, to) >= 0.05 {
					break
				}
			}
			from := nodes[r.Intn(len(nodes))]
			for from == to {
				from = nodes[r.Intn(len(nodes))]
			}
			w := 0.01 + r.Float64()*(1-incoming(sim, to)-0.01)
			id, err := sim.AddShare(from, to, w)
			if err != nil {
				panic(err)
			}
			live = append(live, sim.Edge(id))
			touched[id] = true
			op = writeOp{Kind: "addShare", Edge: id, From: from, To: to, W: w}
		default: // removeEdge
			i := r.Intn(len(live))
			e := live[i]
			op = writeOp{Kind: "removeEdge", Edge: e.ID, From: e.From, To: e.To}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			sim.RemoveEdge(e.ID)
			touched[e.ID] = true
		}
		op.Due = due
		in.Writes = append(in.Writes, op)
	}

	// What-if scenarios only touch edges the change stream never touches, so
	// they stay valid whatever prefix of the stream has landed.
	var still []*pg.Edge
	for _, e := range shareEdges(g) {
		if !touched[e.ID] {
			still = append(still, e)
		}
	}
	scenario := func() []whatif.Op {
		e := still[r.Intn(len(still))]
		if r.Intn(2) == 0 {
			return []whatif.Op{{Op: "removeEdge", Edge: e.ID}}
		}
		return []whatif.Op{{Op: "setShare", Edge: e.ID, W: weight(e) / 2}}
	}
	in.Prewarm = scenario()
	// The reader is closed loop: generate more requests than the fastest
	// plausible run can issue (one per 2 ms).
	for i := 0; i < int(d/(2*time.Millisecond)); i++ {
		if r.Float64() < 0.1 {
			in.Reader = append(in.Reader, followerOp{Kind: "whatif", Scenario: scenario()})
			continue
		}
		back := int(r.ExpFloat64() * recentMean)
		in.Reader = append(in.Reader, followerOp{Kind: readKind(r), Back: back})
	}
	return in
}

func genAnalyst(seed int64, d time.Duration) *analystInputs {
	g := genGraph(analystCompanies)
	r := rand.New(rand.NewSource(seed))
	in := &analystInputs{Graph: g}
	edges := shareEdges(g)
	companies := g.NodesWithLabel(pg.LabelCompany)
	acquirer := g.NextNodeID() // augmentation adds edges only, so this stays free
	scenario := func() []whatif.Op {
		switch r.Intn(3) {
		case 0: // acquisition of spare capital by a new holding
			var to pg.NodeID
			for {
				to = companies[r.Intn(len(companies))]
				if 1-incoming(g, to) >= 0.1 {
					break
				}
			}
			w := (1 - incoming(g, to)) * (0.5 + r.Float64()/2)
			return []whatif.Op{
				{Op: "addNode", Name: "acquirer"},
				{Op: "addShare", From: acquirer, To: to, W: w},
			}
		case 1:
			e := edges[r.Intn(len(edges))]
			return []whatif.Op{{Op: "setShare", Edge: e.ID, W: newShare(r, g, e)}}
		default:
			return []whatif.Op{{Op: "removeEdge", Edge: edges[r.Intn(len(edges))].ID}}
		}
	}
	// The sweep visits every threshold once per cycle in a seeded order, never
	// repeating a threshold across a cycle boundary, so every block starts
	// with a threshold switch. A closed loop cannot issue more than one
	// what-if per 10 ms.
	prev := -1.0
	for blocks := 0; len(in.Jobs) < int(d/(10*time.Millisecond)); {
		order := r.Perm(len(sweep))
		if sweep[order[0]] == prev {
			order[0], order[len(order)-1] = order[len(order)-1], order[0]
		}
		for _, i := range order {
			t := sweep[i]
			for k := 0; k < whatifsPerBlock; k++ {
				in.Jobs = append(in.Jobs, jobOp{Kind: "whatif", Threshold: t, First: k == 0, Scenario: scenario()})
			}
			prev = t
			if blocks++; blocks%augmentEvery == 0 {
				in.Jobs = append(in.Jobs, jobOp{Kind: "augment"})
			}
		}
	}
	return in
}
