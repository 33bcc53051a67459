// Package ivm maintains the derived ownership relations — control,
// accumulated ownership, close links — incrementally under the committed
// mutation stream, instead of re-chasing the whole graph after every write.
//
// The derived state splits along the engine's incremental fault line
// (datalog.ApplyDelta refuses aggregates):
//
//   - control and accown are msum-aggregate relations, so their deltas are
//     non-local: retracting one contribution shifts a whole group's total.
//     They are maintained by recompute-per-affected-cone — reverse
//     shareholding reachability from the journal's changed set gives the
//     sources whose derived rows may have moved (whatif.ReverseReachable,
//     the PR-6 scoping machinery), and a scoped chase over the forward
//     closure of that set re-derives exactly those rows, seeding untouched
//     baseline rows for the cones it reads but does not own.
//   - close links are a positive, aggregate-free program over the FINAL
//     accown rows: strong(x, y) ⇔ Φ(x, y) ≥ t plus iscompany(x). A
//     persistent mini-engine holds that program materialized, and each
//     commit feeds it the strong/iscompany deltas through
//     datalog.ApplyDelta — counting/DRed delete-rederive, no recompute.
//
// On a registry-scale graph a single shareholding edit touches a tiny cone,
// which turns a full re-chase (seconds to minutes) into a few milliseconds
// of maintenance; the randomized differential harness in this package pins
// incremental == full re-chase across mutation streams.
//
// A Maintainer is invalid until seeded and after any error; callers fall
// back to a full baseline computation and re-seed. All methods are safe for
// concurrent use; Apply runs under the maintainer's lock while published
// baselines stay immutable, so readers never block on maintenance.
//
// OnCommit is the store.Versioned commit hook that feeds it on every role:
// it only queues the journal, so commits — and on a replica, frame
// application — never wait on a maintenance chase. Drain applies the queue
// up to the version a reader pinned.
package ivm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
	"vadalink/internal/store"
	"vadalink/internal/whatif"
)

// maxQueued bounds the mutations awaiting maintenance; past it the queue
// drops, and the journal gap invalidates the maintained state.
const maxQueued = 1 << 16

// pending is one committed journal awaiting maintenance.
type pending struct {
	from, to uint64
	muts     []pg.Mutation
}

// closeLinkDeltaProgram is the aggregate-free close-link program the
// mini-engine maintains through ApplyDelta. It is the image of the
// whatif close-link rules under "accown(X, Y, W), W >= t" ⇒ "strong(X, Y)":
// since the chase's accown rows only improve, a row crosses the threshold
// iff its final (maximal) value does, so pair formation over final rows
// derives exactly the close links of the full program.
const closeLinkDeltaProgram = `
	strong(X, Y), iscompany(X), iscompany(Y) -> clcand(X, Y).
	strong(Z, X), strong(Z, Y), X != Y, iscompany(X), iscompany(Y) -> clcand(X, Y).
	clcand(X, Y) -> clcand(Y, X).
	clcand(X, Y) -> closelink(X, Y).
`

// ErrInvalid reports a maintainer with no valid derived state (never seeded,
// or invalidated by an error); the caller must recompute a full baseline and
// Seed again.
var ErrInvalid = errors.New("ivm: maintainer holds no valid derived state")

// Stats counts maintenance activity, served by /v1/metrics.
type Stats struct {
	// IncrementalCommits counts commits maintained incrementally.
	IncrementalCommits int64 `json:"incrementalCommits"`
	// SkippedCommits counts commits whose journal could not move any derived
	// fact (no shareholding mutations), acknowledged without any chase.
	SkippedCommits int64 `json:"skippedCommits"`
	// FullRebuilds counts seedings from a full baseline chase.
	FullRebuilds int64 `json:"fullRebuilds"`
	// Invalidations counts errors that discarded the derived state.
	Invalidations int64 `json:"invalidations"`
	// ControlChanged / CloseLinkChanged accumulate the derived-pair changes
	// applied across all incremental commits.
	ControlChanged   int64 `json:"controlChanged"`
	CloseLinkChanged int64 `json:"closeLinkChanged"`
	// LastAffectedSources is the affected-cone size of the last incremental
	// commit; LastApplyMillis its wall-clock cost.
	LastAffectedSources int     `json:"lastAffectedSources"`
	LastApplyMillis     float64 `json:"lastApplyMillis"`
	// Valid reports whether a maintained baseline is currently served, at
	// sequence Seq.
	Valid bool   `json:"valid"`
	Seq   uint64 `json:"seq"`
}

// Maintainer owns the incrementally maintained derived state of one graph at
// one close-link threshold.
type Maintainer struct {
	mu        sync.Mutex
	threshold float64
	opts      []datalog.Option

	valid bool
	seq   uint64
	root  uint64           // the Roots value the maintained state belongs to
	bl    *whatif.Baseline // published: immutable once stored here
	cl    *datalog.Engine  // close-link mini-engine (strong/iscompany EDB)

	stats Stats

	// qmu guards the commit queue and the root counter; OnCommit takes only
	// qmu, never mu.
	qmu    sync.Mutex
	queue  []pending
	queued int
	roots  uint64
}

// New creates an empty (invalid) maintainer for one close-link threshold;
// threshold 0 means whatif.DefaultThreshold. The engine options apply to
// every maintenance chase and must match the ones the seeding baseline was
// computed with, or seeded rows would not line up with re-derived ones; the
// whatif convergence default (MinAggDelta) is prepended so explicit caller
// options still win, mirroring whatif.ComputeBaseline.
func New(threshold float64, engineOpts ...datalog.Option) *Maintainer {
	if threshold == 0 {
		threshold = whatif.DefaultThreshold
	}
	opts := append([]datalog.Option{datalog.WithMinAggDelta(whatif.DefaultMinAggDelta)}, engineOpts...)
	return &Maintainer{threshold: threshold, opts: opts}
}

// Threshold reports the close-link threshold this maintainer maintains.
func (m *Maintainer) Threshold() float64 { return m.threshold }

// Init computes a full baseline of v and seeds the maintainer with it.
func (m *Maintainer) Init(ctx context.Context, v pg.View, seq uint64) error {
	roots := m.Roots()
	bl, err := whatif.ComputeBaseline(ctx, v, m.threshold, m.opts...)
	if err != nil {
		return err
	}
	return m.Seed(ctx, v, seq, roots, bl)
}

// OnCommit is the version chain's commit hook: it queues the journal that
// produced next for a later Drain. A nil journal marks a new root (a
// replica's snapshot bootstrap) that no journal describes: the queue and
// the maintained state are dropped.
func (m *Maintainer) OnCommit(next *store.Version, journal []pg.Mutation) {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	if journal == nil {
		m.roots++
		m.queue, m.queued = nil, 0
		return
	}
	m.queue = append(m.queue, pending{from: next.Seq() - uint64(len(journal)), to: next.Seq(), muts: journal})
	if m.queued += len(journal); m.queued > maxQueued {
		m.queue, m.queued = nil, 0
	}
}

// Roots counts the new roots OnCommit has observed. Read it before pinning
// the version a baseline for Seed is computed over: a seed whose count is
// stale describes a history a bootstrap has since replaced.
func (m *Maintainer) Roots() uint64 {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	return m.roots
}

// Drain applies the queued journals up to seq, where post is the view of
// the version at seq. Journals past seq stay queued for a later reader, and
// so does everything while the commit hook has not yet queued seq itself.
// An invalid maintainer leaves the queue alone: a Seed at or below seq
// still needs it.
func (m *Maintainer) Drain(ctx context.Context, post pg.View, seq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.qmu.Lock()
	if m.valid && m.root != m.roots {
		m.stats.Invalidations++
		m.invalidateLocked()
	}
	var take []pending
	if n := len(m.queue); m.valid && m.seq < seq && n > 0 && m.queue[n-1].to >= seq {
		take = m.takeThrough(seq)
	}
	m.qmu.Unlock()
	if len(take) == 0 {
		return
	}
	var muts []pg.Mutation
	for _, p := range take {
		muts = append(muts, p.muts...)
	}
	_ = m.applyLocked(ctx, post, take[0].from, seq, muts)
}

// takeThrough pops the queued journals up to seq. The caller holds qmu.
func (m *Maintainer) takeThrough(seq uint64) []pending {
	n := 0
	for n < len(m.queue) && m.queue[n].to <= seq {
		m.queued -= len(m.queue[n].muts)
		n++
	}
	take := m.queue[:n]
	m.queue = m.queue[n:]
	return take
}

// Seed installs an externally computed full baseline of v at seq as the
// maintained state and materializes the close-link mini-engine from it. The
// baseline must have been computed with this maintainer's threshold and
// engine options (reasonapi seeds it with the full chase a /v1/whatif miss
// ran, so one chase serves both). roots is what Roots returned before v was
// pinned: a seed from a history replaced since is dropped. A seed never
// regresses either: when the maintainer already holds valid state at seq
// or later (a commit advanced it while this baseline was being computed),
// the stale seed is dropped. Queued journals up to seq are discarded — the
// seed already reflects them.
func (m *Maintainer) Seed(ctx context.Context, v pg.View, seq, roots uint64, bl *whatif.Baseline) error {
	if bl.Threshold != m.threshold {
		return fmt.Errorf("ivm: baseline threshold %v does not match maintainer %v", bl.Threshold, m.threshold)
	}
	cl, err := m.buildCloseLinkEngine(ctx, v, bl)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.qmu.Lock()
	defer m.qmu.Unlock()
	if roots != m.roots || (m.valid && m.root == roots && m.seq >= seq) {
		return nil
	}
	m.takeThrough(seq)
	m.valid = true
	m.seq = seq
	m.root = roots
	m.bl = bl
	m.cl = cl
	m.stats.FullRebuilds++
	m.stats.Valid = true
	m.stats.Seq = seq
	return nil
}

// buildCloseLinkEngine materializes the delta program from a baseline's
// final accown rows and verifies it reproduces the baseline's close-link
// set — a cheap proof that the strong-row translation is faithful before
// any increment trusts it.
func (m *Maintainer) buildCloseLinkEngine(ctx context.Context, v pg.View, bl *whatif.Baseline) (*datalog.Engine, error) {
	prog, err := datalog.Parse(closeLinkDeltaProgram)
	if err != nil {
		return nil, fmt.Errorf("ivm: parsing close-link program: %w", err)
	}
	cl, err := datalog.NewEngine(prog, m.opts...)
	if err != nil {
		return nil, fmt.Errorf("ivm: preparing close-link engine: %w", err)
	}
	for _, id := range v.NodesWithLabel(pg.LabelCompany) {
		cl.Assert(iscompanyFact(id))
	}
	for _, rows := range bl.Accown {
		for _, f := range strongFacts(rows, m.threshold) {
			cl.Assert(f)
		}
	}
	if err := cl.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("ivm: materializing close links: %w", err)
	}
	got := closeLinkPairs(cl.Facts("closelink"))
	if len(got) != len(bl.CloseLink) {
		return nil, fmt.Errorf("ivm: close-link materialization has %d pairs, baseline %d", len(got), len(bl.CloseLink))
	}
	for p := range got {
		if !bl.CloseLink[p] {
			return nil, fmt.Errorf("ivm: close-link materialization derived %v outside the baseline", p)
		}
	}
	return cl, nil
}

// Baseline returns the maintained baseline when it is valid, matches seq,
// and was maintained at threshold; nil otherwise (caller recomputes).
func (m *Maintainer) Baseline(seq uint64, threshold float64) *whatif.Baseline {
	if threshold == 0 {
		threshold = whatif.DefaultThreshold
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.valid || m.seq != seq || threshold != m.threshold || m.root != m.Roots() {
		return nil
	}
	return m.bl
}

// Invalidate discards the maintained state.
func (m *Maintainer) Invalidate() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.valid {
		m.stats.Invalidations++
	}
	m.invalidateLocked()
}

func (m *Maintainer) invalidateLocked() {
	m.valid = false
	m.bl = nil
	m.cl = nil
	m.stats.Valid = false
}

// Stats returns a snapshot of the maintenance counters.
func (m *Maintainer) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Apply advances the maintained state from fromSeq to toSeq under one
// committed journal. post must be the post-commit view and muts the exact,
// ordered mutations that produced it from the state at fromSeq — the
// version chain's commit journals guarantee that by construction. A fromSeq
// that does not match the maintained sequence means a journal was missed
// (e.g. the queue overflowed); the maintainer invalidates itself rather
// than silently diverge. On any error the maintainer invalidates itself and
// the caller must fall back to a full baseline.
func (m *Maintainer) Apply(ctx context.Context, post pg.View, fromSeq, toSeq uint64, muts []pg.Mutation) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyLocked(ctx, post, fromSeq, toSeq, muts)
}

func (m *Maintainer) applyLocked(ctx context.Context, post pg.View, fromSeq, toSeq uint64, muts []pg.Mutation) error {
	if !m.valid {
		return ErrInvalid
	}
	if fromSeq != m.seq {
		return m.failLocked(fmt.Errorf("ivm: journal gap: maintained state at seq %d, journal starts at %d", m.seq, fromSeq))
	}
	start := time.Now()

	// Classify the journal: the owner-side endpoints of every mutated
	// shareholding edge and every removed node seed the affected set;
	// company-node churn feeds the iscompany relation of the close-link
	// engine. Everything else (family/control/closelink edges materialized
	// by augmentation, person nodes) cannot move the derived state.
	changed := map[pg.NodeID]bool{}
	companyChurn := map[pg.NodeID]bool{}
	for _, mut := range muts {
		switch mut.Kind {
		case pg.MutAddNode:
			if mut.Node != nil && mut.Node.Label == pg.LabelCompany {
				companyChurn[mut.Node.ID] = true
			}
		case pg.MutRemoveNode:
			if mut.Node == nil {
				return m.failLocked(fmt.Errorf("ivm: node removal without node"))
			}
			changed[mut.Node.ID] = true
			if mut.Node.Label == pg.LabelCompany {
				companyChurn[mut.Node.ID] = true
			}
		case pg.MutAddEdge, pg.MutRemoveEdge, pg.MutSetEdgeWeight:
			if mut.Edge == nil {
				return m.failLocked(fmt.Errorf("ivm: edge mutation without edge"))
			}
			if mut.Edge.Label == pg.LabelShareholding {
				changed[mut.Edge.From] = true
			}
		default:
			return m.failLocked(fmt.Errorf("ivm: unknown mutation kind %d", mut.Kind))
		}
	}
	// Company churn resolves against the post view (a node added and removed
	// in the same journal nets to absent; ApplyDelta tolerates no-op deltas).
	var iscoDels, iscoAdds []datalog.Fact
	for id := range companyChurn {
		if n := post.Node(id); n != nil && n.Label == pg.LabelCompany {
			iscoAdds = append(iscoAdds, iscompanyFact(id))
		} else {
			iscoDels = append(iscoDels, iscompanyFact(id))
		}
	}
	if len(changed) == 0 && len(iscoDels) == 0 && len(iscoAdds) == 0 {
		m.seq = toSeq
		m.stats.Seq = toSeq
		m.stats.SkippedCommits++
		return nil
	}

	// Affected sources: reverse shareholding reachability from the changed
	// set over the post view. The post view alone suffices: a reverse path
	// that existed only pre-commit must start with a removed edge, and that
	// edge's owner side is already in the changed set.
	affected := whatif.ReverseReachable(changed, post)

	// The scoped chase reads the forward ownership closure of the affected
	// set: every cone an affected source can reach.
	cone := forwardClosure(post, affected)

	next, controlDelta, err := m.rechaseCones(ctx, post, affected, cone)
	if err != nil {
		return m.failLocked(err)
	}

	// Close links: final-row threshold crossings of re-derived sources plus
	// company churn, pushed through the mini-engine as extensional deltas.
	var dels, adds []datalog.Fact
	for src := range affected {
		old := strongFacts(m.bl.Accown[src], m.threshold)
		now := strongFacts(next.Accown[src], m.threshold)
		oldKeys := make(map[string]bool, len(old))
		for _, f := range old {
			oldKeys[f.Key()] = true
		}
		nowKeys := make(map[string]bool, len(now))
		for _, f := range now {
			nowKeys[f.Key()] = true
			if !oldKeys[f.Key()] {
				adds = append(adds, f)
			}
		}
		for _, f := range old {
			if !nowKeys[f.Key()] {
				dels = append(dels, f)
			}
		}
	}
	dels = append(dels, iscoDels...)
	adds = append(adds, iscoAdds...)
	clRes, err := m.cl.ApplyDelta(ctx, dels, adds)
	if err != nil {
		return m.failLocked(fmt.Errorf("ivm: close-link delta: %w", err))
	}
	closeLinkDelta := m.spliceCloseLinks(next, clRes)

	m.bl = next
	m.seq = toSeq
	m.stats.Seq = toSeq
	m.stats.IncrementalCommits++
	m.stats.ControlChanged += int64(controlDelta)
	m.stats.CloseLinkChanged += int64(closeLinkDelta)
	m.stats.LastAffectedSources = len(affected)
	m.stats.LastApplyMillis = float64(time.Since(start).Microseconds()) / 1000
	return nil
}

// failLocked invalidates the maintainer and passes the error through.
func (m *Maintainer) failLocked(err error) error {
	m.stats.Invalidations++
	m.invalidateLocked()
	return err
}

// rechaseCones re-derives control and accown for the affected sources over
// the forward closure, seeding untouched baseline rows for cone sources the
// chase reads but does not own, and returns the successor baseline (with
// the close-link set still the old one — spliceCloseLinks finishes it).
func (m *Maintainer) rechaseCones(ctx context.Context, post pg.View,
	affected, cone map[pg.NodeID]bool) (*whatif.Baseline, int, error) {

	prog, err := datalog.Parse(whatif.MaintenanceProgram())
	if err != nil {
		return nil, 0, fmt.Errorf("ivm: parsing maintenance program: %w", err)
	}
	e, err := datalog.NewEngine(prog, m.opts...)
	if err != nil {
		return nil, 0, fmt.Errorf("ivm: preparing maintenance engine: %w", err)
	}
	for id := range affected {
		e.Assert(datalog.Fact{Pred: "affected", Args: []any{int64(id)}})
		if f, ok := relstore.NodeFact(post, id); ok {
			e.Assert(f)
		}
	}
	for id := range cone {
		e.AssertAll(relstore.OwnFacts(post, id))
		if !affected[id] {
			e.AssertAll(m.bl.Accown[id])
		}
	}
	if err := e.RunContext(ctx); err != nil {
		return nil, 0, fmt.Errorf("ivm: scoped maintenance chase: %w", err)
	}

	// Splice: drop every affected source's old rows, adopt its new ones.
	// Every control fact of the scoped chase has an affected source (the
	// affected(X) guard seeds ccand), so unaffected rows carry over verbatim.
	nextControl := make(map[whatif.Pair]bool, len(m.bl.Control))
	for p := range m.bl.Control {
		if !affected[p[0]] {
			nextControl[p] = true
		}
	}
	controlDelta := 0
	for _, f := range e.Facts("control") {
		if p, ok := pairOf(f); ok {
			nextControl[p] = true
			if !m.bl.Control[p] {
				controlDelta++ // gained
			}
		}
	}
	for p := range m.bl.Control {
		if affected[p[0]] && !nextControl[p] {
			controlDelta++ // lost
		}
	}

	nextAccown := make(map[pg.NodeID][]datalog.Fact, len(m.bl.Accown))
	for src, rows := range m.bl.Accown {
		if !affected[src] {
			nextAccown[src] = rows
		}
	}
	for _, f := range e.MaxByGroup("accown", 2, 0, 1) {
		if src, ok := nodeID(f.Args[0]); ok && affected[src] {
			nextAccown[src] = append(nextAccown[src], f)
		}
	}
	return &whatif.Baseline{
		Threshold: m.threshold,
		Control:   nextControl,
		CloseLink: m.bl.CloseLink, // finished by spliceCloseLinks
		Accown:    nextAccown,
	}, controlDelta, nil
}

// spliceCloseLinks folds the mini-engine's derived close-link deltas into
// the successor baseline and reports how many canonical pairs changed.
func (m *Maintainer) spliceCloseLinks(next *whatif.Baseline, res datalog.DeltaResult) int {
	if len(res.Added) == 0 && len(res.Removed) == 0 {
		return 0
	}
	cl := make(map[whatif.Pair]bool, len(m.bl.CloseLink))
	for p := range m.bl.CloseLink {
		cl[p] = true
	}
	changed := 0
	for _, f := range res.Removed {
		if f.Pred != "closelink" {
			continue
		}
		if p, ok := pairOf(f); ok {
			if cl[canonical(p)] {
				changed++
			}
			delete(cl, canonical(p))
		}
	}
	for _, f := range res.Added {
		if f.Pred != "closelink" {
			continue
		}
		if p, ok := pairOf(f); ok {
			if !cl[canonical(p)] {
				changed++
			}
			cl[canonical(p)] = true
		}
	}
	next.CloseLink = cl
	return changed
}

// forwardClosure computes forward shareholding reachability from the seeds.
func forwardClosure(v pg.View, seeds map[pg.NodeID]bool) map[pg.NodeID]bool {
	out := make(map[pg.NodeID]bool, len(seeds))
	queue := make([]pg.NodeID, 0, len(seeds))
	for n := range seeds {
		out[n] = true
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range v.OutLabel(n, pg.LabelShareholding) {
			if !out[e.To] {
				out[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return out
}

// strongFacts projects final accown rows to strong(x, y) facts at the
// threshold.
func strongFacts(rows []datalog.Fact, threshold float64) []datalog.Fact {
	var out []datalog.Fact
	for _, f := range rows {
		if len(f.Args) != 3 {
			continue
		}
		w, ok := f.Args[2].(float64)
		if !ok || w < threshold {
			continue
		}
		out = append(out, datalog.Fact{Pred: "strong", Args: []any{f.Args[0], f.Args[1]}})
	}
	return out
}

func iscompanyFact(id pg.NodeID) datalog.Fact {
	return datalog.Fact{Pred: "iscompany", Args: []any{int64(id)}}
}

func nodeID(v any) (pg.NodeID, bool) {
	switch x := v.(type) {
	case int64:
		return pg.NodeID(x), true
	case float64:
		return pg.NodeID(int64(x)), float64(int64(x)) == x
	}
	return 0, false
}

func pairOf(f datalog.Fact) (whatif.Pair, bool) {
	if len(f.Args) != 2 {
		return whatif.Pair{}, false
	}
	a, ok1 := nodeID(f.Args[0])
	b, ok2 := nodeID(f.Args[1])
	if !ok1 || !ok2 {
		return whatif.Pair{}, false
	}
	return whatif.Pair{a, b}, true
}

func canonical(p whatif.Pair) whatif.Pair {
	if p[1] < p[0] {
		return whatif.Pair{p[1], p[0]}
	}
	return p
}

// closeLinkPairs canonicalizes directed closelink facts into a pair set.
func closeLinkPairs(facts []datalog.Fact) map[whatif.Pair]bool {
	out := map[whatif.Pair]bool{}
	for _, f := range facts {
		if p, ok := pairOf(f); ok {
			out[canonical(p)] = true
		}
	}
	return out
}
