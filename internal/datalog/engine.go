package datalog

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vadalink/internal/faultinject"
)

// Builtin is a host function callable from rule bodies as #name(args...).
// When the engine runs with Options.Parallel > 1, builtins may be called from
// several chase workers at once and must be safe for concurrent use (the
// shipped #linkprob and Skolem builtins are).
type Builtin func(args []any) (any, error)

// Options configure engine evaluation.
type Options struct {
	// MinAggDelta is the minimum improvement of a monotonic aggregate that
	// triggers a new derivation. On cyclic inputs (e.g. accumulated ownership
	// over share cycles) the exact fixpoint is a geometric limit; stopping at
	// MinAggDelta guarantees termination with bounded error. Zero means the
	// default of 1e-9.
	MinAggDelta float64

	// MaxRounds bounds the total number of semi-naive rounds of one Run as
	// a safety net against diverging programs. Zero means the default of
	// 1_000_000. Exceeding it yields a *BudgetExceededError with
	// Limit == LimitRounds.
	MaxRounds int

	// Budget bounds the resources of one Run (derived facts, pending delta,
	// index memory, cancellation-check cadence); the wall-clock deadline
	// comes from the context passed to RunContext. The zero Budget imposes
	// no limits.
	Budget Budget

	// TraceFn, when set, receives one line per derived fact (debugging aid).
	TraceFn func(string)

	// Naive disables semi-naive delta restriction: every round re-evaluates
	// every rule against the full store. Exists for the ablation benchmarks;
	// results are identical, only slower.
	Naive bool

	// Provenance records, for every derived fact, the rule and the body
	// facts that first produced it, enabling Explain — the paper's
	// explainability claim ("Vada-Link decisions are explainable and
	// unambiguous"). Costs memory proportional to the derived facts.
	Provenance bool

	// Parallel is the number of workers evaluating the independent rule
	// instantiations of one chase round. 0 means GOMAXPROCS; 1 forces the
	// sequential path. With more than one worker, each round's rules run
	// against the store frozen at round start and emit into per-job buffers
	// that merge in deterministic job order, so the result is identical for
	// any worker count (see DESIGN.md §7.2). Aggregate rules always evaluate
	// on the merging goroutine because monotonic-aggregation state is shared.
	Parallel int

	// NoIndex disables the per-predicate positional hash indexes: lookup and
	// Match fall back to scanning every fact of the relation. This is the
	// pre-index baseline, kept for the BenchmarkChase ablation and the
	// differential test harness.
	NoIndex bool

	// Stats enables ChaseStats collection during Run (see WithStats). When
	// false the engine pays only a nil check per chase job.
	Stats bool

	// Hook receives chase lifecycle events (see Hook and WithHook). The
	// zero Hook is inert.
	Hook Hook

	// Base, when set, is a frozen extensional database mounted into the
	// engine at construction (see Base and WithBase).
	Base *Base
}

// Derivation explains one derived fact: the rule that fired and the premises
// (body facts) of its first derivation.
type Derivation struct {
	Rule     string // the rule's label and text
	Premises []Fact
}

// Engine evaluates a Program over a growing fact store using a semi-naive
// bottom-up chase, stratified on negation.
//
// Concurrency contract: an Engine must not be mutated concurrently — Assert
// and Run/RunContext need exclusive access. After a Run completes, the
// read-only accessors (Facts, Match, Query, Has, Explain, ...) are safe to
// call from many goroutines at once; lazy index builds they may trigger are
// internally synchronized.
type Engine struct {
	prog     *Program
	opts     Options
	builtins map[string]Builtin

	rels     map[string]*relation
	strata   [][]int // rule indices per stratum, in evaluation order
	ruleMeta []ruleMeta

	aggState map[string]*aggGroup // keyed by head predicate + group values

	rounds int // total semi-naive rounds of the last Run

	// per-Run budget state: the run's context, the first budget violation
	// (sticky until the evaluation unwinds; guarded by stopMu with the
	// stopped flag as the fast-path check), and the derived-fact count.
	ctx          context.Context
	stopMu       sync.Mutex
	stopped      atomic.Bool
	stopErr      *BudgetExceededError
	derivedCount int
	dupCount     int // emissions absorbed as already-known facts
	curStratum   int

	// stats is the live collector of the current Run (nil when Options.Stats
	// is off); lastStats is the frozen report of the last Run.
	stats     *statsCollector
	lastStats *ChaseStats

	// indexBytes is the estimated memory of all positional indexes, accrued
	// atomically because chase workers may build indexes lazily while
	// evaluating in parallel. Checked against Budget.MaxIndexBytes.
	indexBytes atomic.Int64

	// bufferedFacts counts facts pending in this round's job buffers, an
	// early MaxFacts backstop for workers whose emissions have not merged yet.
	bufferedFacts atomic.Int64

	// prov holds the first derivation per fact key (Options.Provenance).
	prov map[string]Derivation
}

// evalCtx is the per-goroutine evaluation state of one chase worker: the
// cooperative-cancellation step counter plus the provenance premise stack of
// the rule instantiation in flight. The engine's shared state stays read-only
// while workers hold evalCtxs; everything mutable lives here or in the
// per-job emission buffers.
type evalCtx struct {
	e         *Engine
	steps     int
	nextCheck int

	// provenance state: the rule being evaluated, the premise stack of the
	// evaluation in flight, and the prior contributions of the active
	// aggregate group.
	curRule     string
	curPremises []Fact
	aggExtra    []Fact

	// vals is the slot frame of the rule instantiation in flight; probes
	// and matches count candidate facts unified and those that unified,
	// cumulatively (jobs report differences).
	vals            []any
	probes, matches int64
}

// frame returns the slot frame sized for a rule's plans.
func (ec *evalCtx) frame(nslots int) []any {
	if cap(ec.vals) < nslots {
		ec.vals = make([]any, nslots)
	}
	return ec.vals[:nslots]
}

func (e *Engine) newEvalCtx() *evalCtx {
	return &evalCtx{e: e, nextCheck: e.opts.Budget.checkEvery()}
}

// emitFn receives a head instantiation together with the evalCtx that
// produced it (for premise capture). Sequential evaluation inserts directly;
// parallel evaluation buffers.
type emitFn func(Fact, *evalCtx)

// Approximate per-entry costs of the positional indexes, used for the
// MaxIndexBytes budget: a new distinct key costs map overhead plus its
// string bytes, every fact reference costs one slot in a bucket.
const (
	indexKeyOverhead    = 48
	indexBucketSlotCost = 8
)

// relation stores the facts of one predicate with a key set for set
// semantics and lazily built per-position hash indexes for joins: argument
// position → index key (see indexKey) → fact indices. An index position is built the
// first time a lookup probes it (double-checked under mu, published through
// the built mask) and maintained incrementally by insert from then on, so
// semi-naive delta inserts stay O(#built positions).
type relation struct {
	facts []Fact
	keys  map[string]bool
	index []map[any][]int // position → index key → fact indices

	// built has bit p set once index[p] is built; readers check it with an
	// atomic load before touching index[p], writers publish under mu. Only
	// the first 64 argument positions are indexable.
	built atomic.Uint64
	mu    sync.Mutex

	// frozen marks a relation owned by a Base: shared by every engine that
	// mounts it and never written (Engine.rel thaws a private copy first).
	frozen bool
}

func newRelation() *relation {
	return &relation{keys: make(map[string]bool)}
}

func (r *relation) hasIndex(pos int) bool {
	return pos < 64 && r.built.Load()&(1<<uint(pos)) != 0
}

// indexKey maps a ground value to its positional-index key: values that
// valueEqual deems equal get equal keys. Values key by themselves, except
// that int widens to int64, NaN (never equal to itself as a map key) gets
// one shared key, and exotic types key by their canonical encoding. Keys
// may collide where valueEqual differs (0.0 and -0.0), so a bucket holds
// candidates that unification still verifies.
func indexKey(v any) any {
	switch x := v.(type) {
	case string, int64, bool, Null, SkolemID:
		return v
	case float64:
		if x != x {
			return nanKey{}
		}
		return v
	case int:
		return int64(x)
	}
	return encodedKey(encodeValue(v))
}

type (
	nanKey     struct{}
	encodedKey string
)

// indexKeyBytes estimates the memory of one distinct index key.
func indexKeyBytes(k any) int {
	if s, ok := k.(string); ok {
		return len(s) + indexKeyOverhead
	}
	return indexKeyOverhead
}

// insert adds a fact under its canonical key k (f.Key(), passed in because
// every caller has already built it), maintaining every built index. It
// reports whether the fact is new and the estimated index bytes the
// insertion added. Insert requires exclusive access (engine mutation
// contract).
func (r *relation) insert(f Fact, k string) (bool, int) {
	if r.frozen {
		panic("datalog: insert into a mounted base relation")
	}
	if r.keys[k] {
		return false, 0
	}
	r.keys[k] = true
	idx := len(r.facts)
	r.facts = append(r.facts, f)
	if r.index == nil {
		r.index = make([]map[any][]int, len(f.Args))
	}
	bytes := 0
	if mask := r.built.Load(); mask != 0 {
		for pos := range f.Args {
			if pos >= len(r.index) || pos >= 64 || mask&(1<<uint(pos)) == 0 {
				continue
			}
			ev := indexKey(f.Args[pos])
			m := r.index[pos]
			b, ok := m[ev]
			if !ok {
				bytes += indexKeyBytes(ev)
			}
			m[ev] = append(b, idx)
			bytes += indexBucketSlotCost
		}
	}
	return true, bytes
}

// ensureIndex builds the positional index for pos if missing, returning the
// estimated bytes it added and whether this call performed the build. Safe
// for concurrent callers: the build is double-checked under mu and published
// through the built mask, so parallel chase workers and concurrent
// Match/Query calls race only on the mutex.
func (r *relation) ensureIndex(pos int) (int, bool) {
	if pos < 0 || pos >= len(r.index) || pos >= 64 {
		return 0, false
	}
	if r.hasIndex(pos) {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.built.Load()&(1<<uint(pos)) != 0 {
		return 0, false
	}
	bytes := 0
	m := make(map[any][]int, len(r.facts))
	for i, f := range r.facts {
		if pos >= len(f.Args) {
			continue
		}
		ev := indexKey(f.Args[pos])
		b, ok := m[ev]
		if !ok {
			bytes += indexKeyBytes(ev)
		}
		m[ev] = append(b, i)
		bytes += indexBucketSlotCost
	}
	r.index[pos] = m
	r.built.Store(r.built.Load() | 1<<uint(pos))
	return bytes, true
}

func (r *relation) bucket(pos int, key any) []int {
	return r.index[pos][key]
}

// parallelSafe reports whether the rule may evaluate on a chase worker.
// Aggregate rules mutate the shared monotonic-aggregation state, so they
// always run on the merging goroutine in deterministic order.
func (m ruleMeta) parallelSafe() bool { return m.aggIdx < 0 }

// aggGroup is the monotonic aggregation state of one (rule, group) pair.
type aggGroup struct {
	op      AggOp
	contrib map[string]float64 // contributor key → current contribution
	total   float64
	init    bool
	// premises accumulates the body facts of every contribution when
	// provenance is on, so aggregate-based decisions explain completely
	// (e.g. a control decision lists all the shareholdings in the sum, not
	// just the one that crossed the threshold).
	premises []Fact
	premKeys map[string]bool
}

// NewEngine prepares a program for evaluation, configured by functional
// options (WithBudget, WithParallel, WithStats, ...). It returns an error if
// a rule is invalid or negation is not stratifiable.
func NewEngine(prog *Program, options ...Option) (*Engine, error) {
	var opts Options
	for _, opt := range options {
		opt(&opts)
	}
	if opts.MinAggDelta == 0 {
		opts.MinAggDelta = 1e-9
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 1_000_000
	}
	e := &Engine{
		prog:     prog,
		opts:     opts,
		builtins: make(map[string]Builtin),
		rels:     make(map[string]*relation),
		aggState: make(map[string]*aggGroup),
	}
	if opts.Provenance {
		e.prov = make(map[string]Derivation)
	}
	for i, r := range prog.Rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		meta, err := planRule(r)
		if err != nil {
			return nil, fmt.Errorf("datalog: rule %d (%s): %w", i, r.Label, err)
		}
		meta.label = r.Label + ": " + r.String()
		if err := compileRule(i, r, &meta); err != nil {
			return nil, fmt.Errorf("datalog: rule %d (%s): %w", i, r.Label, err)
		}
		e.ruleMeta = append(e.ruleMeta, meta)
	}
	strata, err := stratify(prog)
	if err != nil {
		return nil, err
	}
	e.strata = strata
	if opts.Base != nil {
		for pred, r := range opts.Base.rels {
			e.rels[pred] = r
		}
	}
	return e, nil
}

// RegisterBuiltin installs a host function callable as #name(...). Functions
// whose name starts with "sk" fall back to Skolem application automatically
// and need no registration.
func (e *Engine) RegisterBuiltin(name string, fn Builtin) {
	e.builtins[name] = fn
}

// Assert adds an extensional fact. It reports whether the fact is new.
func (e *Engine) Assert(f Fact) bool {
	ok, bytes := e.rel(f.Pred).insert(f, f.Key())
	if bytes > 0 {
		e.indexBytes.Add(int64(bytes))
	}
	return ok
}

// AssertAll adds many extensional facts.
func (e *Engine) AssertAll(fs []Fact) {
	for _, f := range fs {
		e.Assert(f)
	}
}

// rel returns the writable relation of pred, creating it if missing and
// replacing a mounted base relation by a private copy. Mutating path only —
// read paths use the map directly so they never grow it.
func (e *Engine) rel(pred string) *relation {
	r, ok := e.rels[pred]
	switch {
	case !ok:
		r = newRelation()
		e.rels[pred] = r
	case r.frozen:
		r = r.thaw()
		e.rels[pred] = r
	}
	return r
}

// addIndexBytes accrues lazily built index memory and trips the budget when
// the estimate crosses Budget.MaxIndexBytes.
func (e *Engine) addIndexBytes(bytes int) {
	if bytes <= 0 {
		return
	}
	total := e.indexBytes.Add(int64(bytes))
	if b := e.opts.Budget; b.MaxIndexBytes > 0 && total > int64(b.MaxIndexBytes) {
		e.trip(LimitIndexMemory, b.MaxIndexBytes, nil)
	}
}

// IndexBytes reports the estimated memory held by the positional indexes.
func (e *Engine) IndexBytes() int64 { return e.indexBytes.Load() }

// cloneFacts deep-copies a fact slice down to the argument slices, so the
// result shares no mutable storage with the engine. The argument values
// themselves are immutable (strings, numbers, Null/Skolem values).
func cloneFacts(fs []Fact) []Fact {
	out := make([]Fact, len(fs))
	for i, f := range fs {
		args := make([]any, len(f.Args))
		copy(args, f.Args)
		out[i] = Fact{Pred: f.Pred, Args: args}
	}
	return out
}

// Facts returns all facts of a predicate, sorted canonically. The result is
// a deep copy: mutating the returned facts (or their Args) cannot corrupt
// the engine's store or its indexes.
func (e *Engine) Facts(pred string) []Fact {
	r, ok := e.rels[pred]
	if !ok {
		return nil
	}
	out := cloneFacts(r.facts)
	SortFacts(out)
	return out
}

// FactsN returns up to n facts of a predicate, taken in derivation order
// and then sorted. Unlike Facts it never sorts the whole relation, so a
// deadline-truncated caller serving a small page of a huge partial result
// does not spend the latency its budget just saved. n <= 0 means all. Like
// Facts, the result is a deep copy that cannot corrupt the store.
func (e *Engine) FactsN(pred string, n int) []Fact {
	r, ok := e.rels[pred]
	if !ok {
		return nil
	}
	fs := r.facts
	if n > 0 && len(fs) > n {
		fs = fs[:n]
	}
	out := cloneFacts(fs)
	SortFacts(out)
	return out
}

// NumFacts reports the number of facts of a predicate.
func (e *Engine) NumFacts(pred string) int {
	if r, ok := e.rels[pred]; ok {
		return len(r.facts)
	}
	return 0
}

// Has reports whether the exact ground fact is present.
func (e *Engine) Has(f Fact) bool {
	r, ok := e.rels[f.Pred]
	return ok && r.keys[f.Key()]
}

// matchPattern reports whether a fact matches a wildcard pattern (nil means
// any value at that position).
func matchPattern(f Fact, pattern []any) bool {
	if len(f.Args) != len(pattern) {
		return false
	}
	for i, p := range pattern {
		if p != nil && !valueEqual(f.Args[i], p) {
			return false
		}
	}
	return true
}

// Match returns the facts of pred whose arguments equal the non-nil entries
// of pattern (nil is a wildcard). When a pattern position is bound, the
// probe goes through the positional hash index (built on first use) instead
// of scanning the relation; the remaining positions verify per candidate.
func (e *Engine) Match(pred string, pattern ...any) []Fact {
	r, ok := e.rels[pred]
	if !ok {
		return nil
	}
	var out []Fact
	if pos, key, indexed := e.chooseIndex(r, pattern); indexed {
		for _, i := range r.bucket(pos, key) {
			if f := r.facts[i]; matchPattern(f, pattern) {
				out = append(out, f)
			}
		}
	} else {
		for _, f := range r.facts {
			if matchPattern(f, pattern) {
				out = append(out, f)
			}
		}
	}
	SortFacts(out)
	return out
}

// chooseIndex selects the index position to probe for a pattern of bound
// values (nil entries unbound): the smallest bucket among built indexes, or
// a fresh index on the first bound position when none is built yet. It
// reports (position, index key, ok).
func (e *Engine) chooseIndex(r *relation, pattern []any) (int, any, bool) {
	if e.opts.NoIndex {
		return 0, nil, false
	}
	bestPos, bestLen := -1, -1
	var bestKey any
	firstBound := -1
	var firstKey any
	for i, p := range pattern {
		if p == nil || i >= len(r.index) || i >= 64 {
			continue
		}
		k := indexKey(p)
		if firstBound == -1 {
			firstBound, firstKey = i, k
		}
		if r.hasIndex(i) {
			n := len(r.bucket(i, k))
			if bestPos == -1 || n < bestLen {
				bestPos, bestLen, bestKey = i, n, k
			}
		}
	}
	if bestPos >= 0 {
		return bestPos, bestKey, true
	}
	if firstBound >= 0 {
		e.buildIndex(r, firstBound)
		if r.hasIndex(firstBound) {
			return firstBound, firstKey, true
		}
	}
	return 0, nil, false
}

// Binding is one answer to a Query: variable name → ground value.
type Binding map[Variable]any

// Query evaluates a conjunctive goal against the current fact store (run
// the program first) and returns every satisfying binding of the goal's
// variables. Goals may mix atoms and share variables, e.g.
//
//	control(X, Y), closelink(Y, Z)
//
// expressed as []Atom. Each goal atom resolves through the positional
// indexes once its variables are bound by earlier atoms. Duplicate bindings
// are deduplicated.
func (e *Engine) Query(goal ...Atom) []Binding {
	slots := slotTable{}
	bound := map[Variable]bool{}
	ops := make([]*atomOp, len(goal))
	for i, a := range goal {
		ops[i] = compileAtom(a, slots, bound)
	}
	vars := make([]Variable, 0, len(slots))
	for v := range slots {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(a, b int) bool { return vars[a] < vars[b] })
	vals := make([]any, len(slots))

	var out []Binding
	seen := map[string]bool{}
	var key strings.Builder
	var rec func(i int)
	rec = func(i int) {
		if i == len(goal) {
			key.Reset()
			for _, v := range vars {
				key.WriteString(string(v))
				key.WriteByte('=')
				appendValue(&key, vals[slots[v]])
				key.WriteByte('|')
			}
			if k := key.String(); !seen[k] {
				seen[k] = true
				b := make(Binding, len(vars))
				for _, v := range vars {
					b[v] = vals[slots[v]]
				}
				out = append(out, b)
			}
			return
		}
		cs := e.lookup(ops[i], vals)
		for k := 0; k < cs.len(); k++ {
			if ops[i].unify(cs.at(k), vals) {
				rec(i + 1)
			}
		}
	}
	rec(0)
	return out
}

// MaxByGroup projects the facts of pred to the maximum value of column
// valueCol per distinct combination of the groupCols. This extracts the
// "final value" of a monotonic aggregation (Section 4: the final value of a
// monotone aggregate is its maximum). The projection is one linear pass —
// group-by over the whole relation touches every fact by definition.
func (e *Engine) MaxByGroup(pred string, valueCol int, groupCols ...int) []Fact {
	r, ok := e.rels[pred]
	if !ok {
		return nil
	}
	best := make(map[string]Fact)
	var kb strings.Builder
	for _, f := range r.facts {
		if valueCol >= len(f.Args) {
			continue
		}
		v, ok := toFloat(f.Args[valueCol])
		if !ok {
			continue
		}
		kb.Reset()
		for _, c := range groupCols {
			appendValue(&kb, f.Args[c])
			kb.WriteByte('|')
		}
		k := kb.String()
		if cur, ok := best[k]; ok {
			cv, _ := toFloat(cur.Args[valueCol])
			if v <= cv {
				continue
			}
		}
		best[k] = f
	}
	out := make([]Fact, 0, len(best))
	for _, f := range best {
		out = append(out, f)
	}
	SortFacts(out)
	return out
}

// Rounds reports the number of semi-naive rounds used by the last Run.
func (e *Engine) Rounds() int { return e.rounds }

// Explain returns the first derivation of a derived fact. It returns false
// for extensional facts, unknown facts, or when the engine runs without
// Options.Provenance.
func (e *Engine) Explain(f Fact) (Derivation, bool) {
	if e.prov == nil {
		return Derivation{}, false
	}
	d, ok := e.prov[f.Key()]
	return d, ok
}

// ExplainTree renders the full derivation tree of a fact as indented lines:
// each derived premise expands recursively (up to maxDepth levels, ≤ 0
// meaning 16); extensional premises are leaves. The result is the
// human-readable "why" of a reasoning decision.
func (e *Engine) ExplainTree(f Fact, maxDepth int) []string {
	if maxDepth <= 0 {
		maxDepth = 16
	}
	var out []string
	seen := map[string]bool{}
	var walk func(f Fact, depth int)
	walk = func(f Fact, depth int) {
		indent := strings.Repeat("  ", depth)
		d, ok := e.Explain(f)
		if !ok {
			out = append(out, indent+f.String()+"   [given]")
			return
		}
		out = append(out, indent+f.String()+"   [by "+ruleHead(d.Rule)+"]")
		if depth >= maxDepth {
			return
		}
		key := f.Key()
		if seen[key] {
			out = append(out, indent+"  …")
			return
		}
		seen[key] = true
		for _, p := range d.Premises {
			walk(p, depth+1)
		}
	}
	walk(f, 0)
	return out
}

// ruleHead shortens a rule string to its label for tree rendering.
func ruleHead(rule string) string {
	if i := strings.Index(rule, ":"); i > 0 && i < 40 {
		return rule[:i]
	}
	if len(rule) > 40 {
		return rule[:40] + "…"
	}
	return rule
}

// Run evaluates the program to fixpoint (stratum by stratum) with no
// deadline; resource limits from Options.Budget still apply.
func (e *Engine) Run() error { return e.RunContext(context.Background()) }

// RunContext evaluates the program to fixpoint under the context's deadline
// and the configured Budget. When a limit trips, it returns a
// *BudgetExceededError naming the limit; the facts derived before the trip
// remain readable through Facts/Match/Query, so callers can serve partial
// results and distinguish "timed out" from "diverged" from "done".
func (e *Engine) RunContext(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	e.resetStop()
	e.rounds = 0
	e.derivedCount = 0
	e.dupCount = 0
	e.stats = nil
	if e.opts.Stats {
		labels := make([]string, len(e.ruleMeta))
		for i := range e.ruleMeta {
			labels[i] = e.ruleMeta[i].label
		}
		e.stats = newStatsCollector(labels)
		// Freeze the report on every return path, including budget trips.
		defer func() { e.lastStats = e.stats.snapshot(e) }()
	}
	for si, stratum := range e.strata {
		e.curStratum = si
		if err := e.runStratum(stratum); err != nil {
			return err
		}
		if se := e.stopError(); se != nil {
			return se
		}
	}
	return nil
}

// DerivedCount reports the number of facts derived by the last Run,
// including a partial Run stopped by the budget.
func (e *Engine) DerivedCount() int { return e.derivedCount }

// workerCount resolves Options.Parallel against GOMAXPROCS and the number of
// parallel-safe jobs of a round.
func (e *Engine) workerCount(parallelJobs int) int {
	w := e.opts.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > parallelJobs {
		w = parallelJobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chaseJob is one rule instantiation of a chase round: a rule evaluated
// either against the full store (deltaLit < 0) or with one body occurrence
// restricted to the previous round's delta (semi-naive evaluation).
type chaseJob struct {
	ri         int
	deltaFacts []Fact
	deltaLit   int
}

// pendingFact is a buffered derivation awaiting the round's merge.
type pendingFact struct {
	f        Fact
	key      string
	premises []Fact // deduplicated premise snapshot (Provenance only)
	rule     string
}

func (e *Engine) runStratum(ruleIdxs []int) error {
	// Predicates derived inside this stratum: delta-tracking applies to them.
	inStratum := make(map[string]bool)
	for _, ri := range ruleIdxs {
		for _, h := range e.prog.Rules[ri].Head {
			inStratum[h.Pred] = true
		}
	}

	// Round 0: evaluate every rule against the full store.
	fullJobs := make([]chaseJob, 0, len(ruleIdxs))
	for _, ri := range ruleIdxs {
		fullJobs = append(fullJobs, chaseJob{ri: ri, deltaLit: -1})
	}
	faultinject.Fire(faultinject.SiteDatalogRound)
	delta, err := e.runRoundObserved(fullJobs)
	if err != nil {
		return err
	}
	e.rounds++

	for len(delta) > 0 {
		faultinject.Fire(faultinject.SiteDatalogRound)
		if se := e.stopError(); se != nil {
			return se
		}
		if err := e.checkCtx(); err != nil {
			return err
		}
		if e.rounds >= e.opts.MaxRounds {
			return e.trip(LimitRounds, e.opts.MaxRounds, nil)
		}
		var jobs []chaseJob
		if e.opts.Naive {
			jobs = fullJobs
		} else {
			// Semi-naive: for each positive body atom occurrence whose
			// predicate is in this stratum and has a delta, re-evaluate the
			// rule with that occurrence restricted to the delta. Overlap
			// between occurrences is harmless under set semantics.
			for _, ri := range ruleIdxs {
				rule := e.prog.Rules[ri]
				for li, l := range rule.Body {
					if l.Kind != LitAtom || !inStratum[l.Atom.Pred] {
						continue
					}
					df := delta[l.Atom.Pred]
					if len(df) == 0 {
						continue
					}
					jobs = append(jobs, chaseJob{ri: ri, deltaFacts: df, deltaLit: li})
				}
			}
		}
		delta, err = e.runRoundObserved(jobs)
		if err != nil {
			return err
		}
		e.rounds++
	}
	return nil
}

// runRoundObserved wraps runRound with the per-round statistics and the
// RoundDone hook; with both off it is a direct call.
func (e *Engine) runRoundObserved(jobs []chaseJob) (map[string][]Fact, error) {
	if e.stats == nil && e.opts.Hook.RoundDone == nil {
		return e.runRound(jobs)
	}
	round := e.rounds
	t0 := time.Now()
	delta, err := e.runRound(jobs)
	elapsed := time.Since(t0)
	newFacts := 0
	for _, fs := range delta {
		newFacts += len(fs)
	}
	if st := e.stats; st != nil {
		st.perRound = append(st.perRound, RoundStats{
			Round: round, Stratum: e.curStratum, Jobs: len(jobs),
			NewFacts: newFacts, Nanos: int64(elapsed),
		})
	}
	if fn := e.opts.Hook.RoundDone; fn != nil {
		fn(round, e.curStratum, newFacts, elapsed)
	}
	return delta, err
}

// runRound evaluates one chase round's jobs and returns the delta of newly
// derived facts per predicate. With one worker the rules evaluate in order
// with immediate insertion (facts derived by an earlier rule are visible to
// later rules of the same round); with several workers the rules evaluate
// against the store frozen at round start and their buffered emissions merge
// in deterministic job order — the fixpoint is the same either way, only the
// round count may differ.
func (e *Engine) runRound(jobs []chaseJob) (map[string][]Fact, error) {
	delta := make(map[string][]Fact)
	pending := 0 // facts across delta, against Budget.MaxDeltaQueue

	// afterInsert applies the bookkeeping of one newly inserted fact:
	// budget accounting, tracing, provenance, delta tracking.
	afterInsert := func(f Fact, key, rule string, premises []Fact) {
		e.derivedCount++
		if b := e.opts.Budget; b.MaxFacts > 0 && e.derivedCount > b.MaxFacts {
			e.trip(LimitFacts, b.MaxFacts, nil)
		}
		pending++
		if b := e.opts.Budget; b.MaxDeltaQueue > 0 && pending > b.MaxDeltaQueue {
			e.trip(LimitDeltaQueue, b.MaxDeltaQueue, nil)
		}
		if b := e.opts.Budget; b.MaxIndexBytes > 0 && e.indexBytes.Load() > int64(b.MaxIndexBytes) {
			e.trip(LimitIndexMemory, b.MaxIndexBytes, nil)
		}
		if e.opts.TraceFn != nil {
			e.opts.TraceFn("derive " + f.String())
		}
		if e.prov != nil {
			e.prov[key] = Derivation{Rule: rule, Premises: premises}
		}
		delta[f.Pred] = append(delta[f.Pred], f)
	}

	parallelJobs := 0
	for _, j := range jobs {
		if e.ruleMeta[j.ri].parallelSafe() {
			parallelJobs++
		}
	}

	if e.workerCount(parallelJobs) <= 1 {
		// Sequential path: direct insertion, premises snapshotted at insert.
		emit := func(f Fact, ec *evalCtx) {
			k := f.Key()
			isNew, bytes := e.rel(f.Pred).insert(f, k)
			e.addIndexBytes(bytes)
			if !isNew {
				e.dupCount++
				return
			}
			var premises []Fact
			var rule string
			if e.prov != nil {
				premises = ec.snapshotPremises()
				rule = ec.curRule
			}
			afterInsert(f, k, rule, premises)
		}
		ec := e.newEvalCtx()
		for _, j := range jobs {
			jt := e.ruleStart(j.ri)
			d0, dup0, p0, m0 := e.derivedCount, e.dupCount, ec.probes, ec.matches
			err := e.evalJob(ec, j, emit)
			e.ruleDone(j.ri, jt, jobCounts{
				derived: e.derivedCount - d0, dups: e.dupCount - dup0,
				probes: ec.probes - p0, matches: ec.matches - m0,
			})
			if err != nil {
				return delta, err
			}
		}
		return delta, nil
	}

	// Parallel path: workers evaluate the parallel-safe jobs against the
	// frozen store into per-job buffers; aggregate jobs follow on this
	// goroutine (shared aggregation state); then every buffer merges in job
	// order, so the outcome is independent of worker scheduling.
	buffers := make([][]pendingFact, len(jobs))
	errs := make([]error, len(jobs))
	panics := make([]any, len(jobs))
	e.bufferedFacts.Store(0)

	var parIdx, seqIdx []int
	for i, j := range jobs {
		if e.ruleMeta[j.ri].parallelSafe() {
			parIdx = append(parIdx, i)
		} else {
			seqIdx = append(seqIdx, i)
		}
	}

	// Per-job instrumentation slots, filled lock-free: each worker owns the
	// slots of the jobs it runs, and the merge (single goroutine) folds them
	// into the per-rule statistics together with the insert counts.
	instr := e.instrumenting()
	var jobNanos []int64
	var counts []jobCounts
	if instr {
		jobNanos = make([]int64, len(jobs))
		counts = make([]jobCounts, len(jobs))
	}
	// runJob evaluates one buffered job, filling its instrumentation slots.
	runJob := func(ec *evalCtx, idx int) {
		jt := e.ruleStart(jobs[idx].ri)
		p0, m0 := ec.probes, ec.matches
		dups, err := e.evalJobBuffered(ec, jobs[idx], &buffers[idx])
		errs[idx] = err
		if instr {
			jobNanos[idx] = int64(time.Since(jt))
			counts[idx] = jobCounts{dups: dups, probes: ec.probes - p0, matches: ec.matches - m0}
		}
	}

	workers := e.workerCount(len(parIdx))
	var poolStart time.Time
	if st := e.stats; st != nil {
		if workers > st.workers {
			st.workers = workers
		}
		poolStart = time.Now()
	}
	jobCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ec := e.newEvalCtx()
			for idx := range jobCh {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[idx] = r
						}
					}()
					runJob(ec, idx)
				}()
			}
		}()
	}
	for _, idx := range parIdx {
		jobCh <- idx
	}
	close(jobCh)
	wg.Wait()
	if st := e.stats; st != nil {
		st.parWallNanos += int64(time.Since(poolStart))
		for _, idx := range parIdx {
			st.parBusyNanos += jobNanos[idx]
		}
	}

	// Aggregate rules evaluate here, after the workers, still against the
	// frozen store: updateAgg mutates shared per-group state, so their order
	// must be the deterministic job order.
	ec := e.newEvalCtx()
	for _, idx := range seqIdx {
		runJob(ec, idx)
	}

	// Re-panic worker panics on the calling goroutine, preserving the
	// sequential contract that a panicking builtin reaches the Run caller.
	for i := range jobs {
		if panics[i] != nil {
			panic(panics[i])
		}
	}

	// Merge in job order. Cross-job duplicates fall out here.
	faultinject.Fire(faultinject.SiteDatalogMerge)
	var firstErr error
	for i := range jobs {
		inserted, mergeDups := 0, 0
		for _, p := range buffers[i] {
			isNew, bytes := e.rel(p.f.Pred).insert(p.f, p.key)
			e.addIndexBytes(bytes)
			if !isNew {
				mergeDups++
				continue
			}
			inserted++
			afterInsert(p.f, p.key, p.rule, p.premises)
		}
		if instr {
			c := counts[i]
			c.derived = inserted
			c.dups += mergeDups
			e.dupCount += c.dups
			e.ruleDoneNanos(jobs[i].ri, jobNanos[i], c)
		}
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
	}
	if firstErr != nil {
		return delta, firstErr
	}
	if se := e.stopError(); se != nil {
		return delta, se
	}
	return delta, nil
}

// snapshotPremises copies and deduplicates the premise stack plus the active
// aggregate group's contributions.
func (ec *evalCtx) snapshotPremises() []Fact {
	seen := map[string]bool{}
	var premises []Fact
	for _, p := range ec.curPremises {
		if k := p.Key(); !seen[k] {
			seen[k] = true
			premises = append(premises, p)
		}
	}
	for _, p := range ec.aggExtra {
		if k := p.Key(); !seen[k] {
			seen[k] = true
			premises = append(premises, p)
		}
	}
	return premises
}

// evalJob evaluates one job with the given emitter. A delta job runs its
// rule's delta-first plan, so the delta facts drive the join and every other
// atom is probed through an index on what they bind; the round-0 plan and
// the NoIndex ablation keep the default order.
func (e *Engine) evalJob(ec *evalCtx, j chaseJob, emit emitFn) error {
	meta := &e.ruleMeta[j.ri]
	p := meta.full
	if j.deltaLit >= 0 && !e.opts.NoIndex {
		p = meta.byDelta[j.deltaLit]
	}
	if e.prov != nil {
		ec.curRule = meta.label
		ec.curPremises = ec.curPremises[:0]
	}
	run := &jobRun{
		ri: j.ri, rule: e.prog.Rules[j.ri], meta: meta, steps: p.steps,
		vals: ec.frame(meta.nslots), deltaFacts: j.deltaFacts, deltaLit: j.deltaLit, emit: emit,
	}
	return e.evalBody(ec, run, 0)
}

// jobRun is the fixed context of one job's body evaluation.
type jobRun struct {
	ri         int
	rule       Rule
	meta       *ruleMeta
	steps      []step
	vals       []any
	deltaFacts []Fact
	deltaLit   int
	emit       emitFn
}

// evalJobBuffered evaluates one job into its buffer: emissions deduplicate
// against the frozen store and the job's own prior emissions, and premises
// snapshot at emission time. It only reads shared engine state (except
// aggregation state for aggregate jobs, which run single-threaded). It
// reports the number of emissions absorbed as duplicates.
func (e *Engine) evalJobBuffered(ec *evalCtx, j chaseJob, buf *[]pendingFact) (int, error) {
	seen := map[string]bool{}
	dups := 0
	maxFacts := e.opts.Budget.MaxFacts
	emit := func(f Fact, ec *evalCtx) {
		k := f.Key()
		if seen[k] {
			dups++
			return
		}
		if r, ok := e.rels[f.Pred]; ok && r.keys[k] {
			dups++
			return
		}
		seen[k] = true
		p := pendingFact{f: f, key: k}
		if e.prov != nil {
			p.premises = ec.snapshotPremises()
			p.rule = ec.curRule
		}
		*buf = append(*buf, p)
		if buffered := e.bufferedFacts.Add(1); maxFacts > 0 && int(buffered)+e.derivedCount > maxFacts {
			// Early backstop: the merge performs the authoritative check,
			// but workers must not buffer unboundedly past the budget.
			e.trip(LimitFacts, maxFacts, nil)
		}
	}
	err := e.evalJob(ec, j, emit)
	return dups, err
}

func (e *Engine) evalBody(ec *evalCtx, run *jobRun, pos int) error {
	// Cooperative cancellation: every body-literal expansion is a step, so
	// even a single enormous join round honors deadlines and budgets.
	if err := ec.step(); err != nil {
		return err
	}
	if pos == len(run.steps) {
		return e.fireHead(ec, run)
	}
	st := &run.steps[pos]
	vals := run.vals
	switch st.kind {
	case LitAtom:
		cs := candidates{facts: run.deltaFacts}
		if st.lit != run.deltaLit {
			cs = e.lookup(st.atom, vals)
		}
		prov := e.prov != nil
		for k := 0; k < cs.len(); k++ {
			f := cs.at(k)
			ec.probes++
			if !st.atom.unify(f, vals) {
				continue
			}
			ec.matches++
			if prov {
				ec.curPremises = append(ec.curPremises, f)
			}
			if err := e.evalBody(ec, run, pos+1); err != nil {
				return err
			}
			if prov {
				ec.curPremises = ec.curPremises[:len(ec.curPremises)-1]
			}
		}
		return nil

	case LitNot:
		if e.existsMatch(ec, st.atom, vals) {
			return nil
		}
		return e.evalBody(ec, run, pos+1)

	case LitCmp:
		lv, err := st.left.eval(e.builtins, vals)
		if err != nil {
			return err
		}
		rv, err := st.right.eval(e.builtins, vals)
		if err != nil {
			return err
		}
		if !compare(st.cmp, lv, rv) {
			return nil
		}
		return e.evalBody(ec, run, pos+1)

	case LitAssign:
		v, err := st.expr.eval(e.builtins, vals)
		if err != nil {
			return err
		}
		if st.check {
			// Re-assignment acts as an equality check.
			if !valueEqual(vals[st.slot], v) {
				return nil
			}
		} else {
			vals[st.slot] = v
		}
		return e.evalBody(ec, run, pos+1)

	case LitAgg:
		v, err := st.expr.eval(e.builtins, vals)
		if err != nil {
			return err
		}
		fv, ok := toFloat(v)
		if !ok {
			return fmt.Errorf("datalog: rule %q: aggregate value %v is not numeric", run.rule.Label, v)
		}
		groupKey, err := groupKey(run, vals)
		if err != nil {
			return err
		}
		total, changed := e.updateAgg(groupKey, st.agg, contributorKey(run.meta.contrib, st.contrib, vals), fv)
		if !changed {
			// The contribution is absorbed without a new derivation, but its
			// premises still belong to the group's explanation.
			if e.prov != nil {
				e.recordAggPremises(ec, groupKey)
			}
			return nil
		}
		var savedExtra []Fact
		if e.prov != nil {
			ag := e.aggState[groupKey]
			savedExtra = ec.aggExtra
			// Prior contributions explain the running total; the current
			// body facts are on curPremises already.
			ec.aggExtra = append(append([]Fact(nil), savedExtra...), ag.premises...)
			e.recordAggPremises(ec, groupKey)
		}
		vals[st.slot] = total
		err = e.evalBody(ec, run, pos+1)
		if e.prov != nil {
			ec.aggExtra = savedExtra
		}
		return err
	}
	return fmt.Errorf("datalog: unknown literal kind %d", st.kind)
}

// fireHead instantiates the head atoms from the slots, inventing nulls for
// existential variables.
func (e *Engine) fireHead(ec *evalCtx, run *jobRun) error {
	meta := run.meta
	var frontier string
	for _, h := range meta.head {
		args := make([]any, len(h.args))
		for i, a := range h.args {
			switch a.slot {
			case argConst:
				args[i] = a.val
			case argExist:
				if frontier == "" {
					fv := make([]any, len(meta.frontier))
					for k, s := range meta.frontier {
						fv[k] = run.vals[s]
					}
					frontier = frontierKey(run.ri, meta.frontierVars, fv)
				}
				args[i] = Null{ID: hashKey(frontier + "|" + string(a.v))}
			case argUnbound:
				return fmt.Errorf("datalog: rule %q: head variable %s unbound", run.rule.Label, a.v)
			default:
				args[i] = run.vals[a.slot]
			}
		}
		run.emit(Fact{Pred: h.pred, Args: args}, ec)
	}
	return nil
}

// groupKey identifies the aggregation group of a body match: the head atom's
// predicate plus the values of its non-target arguments. Keying on the head
// predicate (not the rule) lets the msum calls of several rules contribute to
// one total, as the paper requires for Algorithm 8 ("the two monotonic
// summations of Rules (2) and (3) contribute to the same total, one for each
// (F, y) pair").
func groupKey(run *jobRun, vals []any) (string, error) {
	var sb strings.Builder
	sb.WriteString(run.rule.Head[run.meta.aggHead].Pred)
	for _, a := range run.meta.group {
		sb.WriteByte('|')
		switch a.slot {
		case argTarget:
			sb.WriteByte('@') // target position: excluded from the group
		case argConst:
			appendValue(&sb, a.val)
		case argExist, argUnbound:
			return "", fmt.Errorf("datalog: rule %q: aggregation group variable %s unbound", run.rule.Label, a.v)
		default:
			appendValue(&sb, vals[a.slot])
		}
	}
	return sb.String(), nil
}

// contributorKey identifies one contributor of an aggregate: the rule's
// prefix plus the contributor values.
func contributorKey(prefix string, slots []int, vals []any) string {
	var sb strings.Builder
	sb.WriteString(prefix)
	for i, s := range slots {
		if i > 0 {
			sb.WriteByte('|')
		}
		appendValue(&sb, vals[s])
	}
	return sb.String()
}

// recordAggPremises folds the current body premises into the aggregate
// group's explanation set (deduplicated).
func (e *Engine) recordAggPremises(ec *evalCtx, groupKey string) {
	st := e.aggState[groupKey]
	if st == nil {
		return
	}
	if st.premKeys == nil {
		st.premKeys = map[string]bool{}
	}
	for _, p := range ec.curPremises {
		if k := p.Key(); !st.premKeys[k] {
			st.premKeys[k] = true
			st.premises = append(st.premises, p)
		}
	}
}

// updateAgg applies a contribution to the monotonic aggregate state of
// (rule, group) and reports the new total plus whether it changed enough to
// trigger a derivation. Contributions are keyed by contributor tuple: a
// contributor counts once, at its best (maximal) contribution so far —
// matching Vadalog's stateful msum with ⟨contributor⟩ notation.
func (e *Engine) updateAgg(groupKey string, op AggOp, contribKey string, v float64) (float64, bool) {
	key := groupKey
	st, ok := e.aggState[key]
	if !ok {
		st = &aggGroup{op: op, contrib: make(map[string]float64)}
		e.aggState[key] = st
	}
	eps := e.opts.MinAggDelta
	cur, seen := st.contrib[contribKey]
	switch op {
	case AggSum:
		if seen && v <= cur+eps {
			return st.total, false
		}
		if !seen {
			cur = 0
		}
		st.contrib[contribKey] = v
		st.total += v - cur
		st.init = true
		return st.total, true
	case AggCount:
		if seen {
			return st.total, false
		}
		st.contrib[contribKey] = 1
		st.total++
		st.init = true
		return st.total, true
	case AggMax:
		if st.init && v <= st.total+eps {
			if !seen || v > cur {
				st.contrib[contribKey] = v
			}
			return st.total, false
		}
		st.contrib[contribKey] = v
		st.total = v
		st.init = true
		return st.total, true
	case AggMin:
		if st.init && v >= st.total-eps {
			return st.total, false
		}
		st.contrib[contribKey] = v
		st.total = v
		st.init = true
		return st.total, true
	case AggProd:
		if seen && v <= cur+eps {
			return st.total, false
		}
		if !st.init {
			st.total = 1
			st.init = true
		}
		if seen && cur != 0 {
			st.total /= cur
		}
		st.contrib[contribKey] = v
		st.total *= v
		return st.total, true
	}
	return 0, false
}

// candidates is what lookup found for an atom: the facts themselves, or,
// when idx is non-nil, positions into facts (an index bucket, iterated in
// place). A snapshot: facts inserted after the lookup are not visited.
type candidates struct {
	facts []Fact
	idx   []int
}

func (c candidates) len() int {
	if c.idx != nil {
		return len(c.idx)
	}
	return len(c.facts)
}

func (c candidates) at(k int) Fact {
	if c.idx != nil {
		return c.facts[c.idx[k]]
	}
	return c.facts[k]
}

// lookup returns candidate facts for an atom under the current slots,
// probing the best available positional index: the smallest bucket among
// built indexes of bound positions, or a freshly built index on the first
// bound position when none exists yet. Unbound atoms (or NoIndex mode) fall
// back to the full relation.
func (e *Engine) lookup(a *atomOp, vals []any) candidates {
	r, ok := e.rels[a.pred]
	if !ok {
		return candidates{}
	}
	st := e.stats
	if e.opts.NoIndex {
		if st != nil {
			st.indexScans.Add(1)
		}
		return candidates{facts: r.facts}
	}
	bestPos, bestLen := -1, -1
	var bestBucket []int
	firstBound := -1
	var firstKey any
	for _, c := range a.checks[:a.nprobe] {
		if c.pos >= len(r.index) || c.pos >= 64 {
			break
		}
		k := indexKey(c.value(vals))
		if firstBound == -1 {
			firstBound, firstKey = c.pos, k
		}
		if r.hasIndex(c.pos) {
			b := r.bucket(c.pos, k)
			if bestPos == -1 || len(b) < bestLen {
				bestPos, bestLen, bestBucket = c.pos, len(b), b
			}
		}
	}
	if bestPos == -1 && firstBound >= 0 {
		e.buildIndex(r, firstBound)
		if r.hasIndex(firstBound) {
			bestPos, bestBucket = firstBound, r.bucket(firstBound, firstKey)
		}
	}
	if bestPos >= 0 {
		if st != nil {
			st.indexHits.Add(1)
		}
		if len(bestBucket) == 0 {
			return candidates{}
		}
		return candidates{facts: r.facts, idx: bestBucket}
	}
	if st != nil {
		st.indexScans.Add(1)
	}
	return candidates{facts: r.facts}
}

// existsMatch reports whether any stored fact matches the (fully bound)
// atom.
func (e *Engine) existsMatch(ec *evalCtx, a *atomOp, vals []any) bool {
	cs := e.lookup(a, vals)
	for k := 0; k < cs.len(); k++ {
		ec.probes++
		if a.unify(cs.at(k), vals) {
			ec.matches++
			return true
		}
	}
	return false
}

// applyBin applies a binary arithmetic operator: numeric operands compute,
// '+' on anything else concatenates.
func applyBin(op byte, lv, rv any) (any, error) {
	lf, lok := toFloat(lv)
	rf, rok := toFloat(rv)
	if !lok || !rok {
		if op == '+' {
			// String concatenation.
			return fmt.Sprintf("%v%v", lv, rv), nil
		}
		return nil, fmt.Errorf("datalog: arithmetic on non-numeric values %v, %v", lv, rv)
	}
	switch op {
	case '+':
		return lf + rf, nil
	case '-':
		return lf - rf, nil
	case '*':
		return lf * rf, nil
	case '/':
		if rf == 0 {
			return nil, fmt.Errorf("datalog: division by zero")
		}
		return lf / rf, nil
	}
	return nil, fmt.Errorf("datalog: unknown operator %q", op)
}

// applyCall applies the builtin name to evaluated arguments; unregistered
// names starting with "sk" apply a Skolem function.
func applyCall(builtins map[string]Builtin, name string, args []any) (any, error) {
	if fn, ok := builtins[name]; ok {
		return fn(args)
	}
	if strings.HasPrefix(name, "sk") {
		return NewSkolem(name, args...), nil
	}
	return nil, fmt.Errorf("datalog: unknown builtin #%s", name)
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	}
	return 0, false
}

// compare applies a comparison operator with numeric coercion; non-numeric
// values compare by canonical encoding (equality/ordering on strings).
func compare(op CmpOp, l, r any) bool {
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if lok && rok {
		switch op {
		case OpEq:
			return lf == rf
		case OpNeq:
			return lf != rf
		case OpLt:
			return lf < rf
		case OpLeq:
			return lf <= rf
		case OpGt:
			return lf > rf
		case OpGeq:
			return lf >= rf
		}
	}
	ls, rs := encodeValue(l), encodeValue(r)
	switch op {
	case OpEq:
		return ls == rs
	case OpNeq:
		return ls != rs
	case OpLt:
		return ls < rs
	case OpLeq:
		return ls <= rs
	case OpGt:
		return ls > rs
	case OpGeq:
		return ls >= rs
	}
	return false
}

// stratify partitions rules into strata such that negated predicates are
// fully computed in earlier strata. It returns an error if a predicate
// depends negatively on itself (directly or transitively through a cycle).
func stratify(p *Program) ([][]int, error) {
	// Predicate stratum numbers via the classic iterative algorithm.
	stratum := make(map[string]int)
	preds := make(map[string]bool)
	for _, r := range p.Rules {
		for _, h := range r.Head {
			preds[h.Pred] = true
		}
		for _, l := range r.Body {
			if l.Kind == LitAtom || l.Kind == LitNot {
				preds[l.Atom.Pred] = true
			}
		}
	}
	maxStrata := len(preds) + 1
	changed := true
	for iter := 0; changed; iter++ {
		if iter > maxStrata*len(p.Rules)+1 {
			return nil, fmt.Errorf("datalog: program is not stratifiable (recursion through negation)")
		}
		changed = false
		for _, r := range p.Rules {
			for _, h := range r.Head {
				hs := stratum[h.Pred]
				for _, l := range r.Body {
					switch l.Kind {
					case LitAtom:
						if s := stratum[l.Atom.Pred]; s > hs {
							hs = s
						}
					case LitNot:
						if s := stratum[l.Atom.Pred] + 1; s > hs {
							hs = s
						}
					}
				}
				if hs > maxStrata {
					return nil, fmt.Errorf("datalog: program is not stratifiable (recursion through negation)")
				}
				if hs != stratum[h.Pred] {
					stratum[h.Pred] = hs
					changed = true
				}
			}
		}
	}
	// Group rules by the stratum of their head predicates (max over heads).
	byStratum := make(map[int][]int)
	maxS := 0
	for i, r := range p.Rules {
		s := 0
		for _, h := range r.Head {
			if stratum[h.Pred] > s {
				s = stratum[h.Pred]
			}
		}
		byStratum[s] = append(byStratum[s], i)
		if s > maxS {
			maxS = s
		}
	}
	var out [][]int
	for s := 0; s <= maxS; s++ {
		if rules, ok := byStratum[s]; ok {
			out = append(out, rules)
		}
	}
	return out, nil
}
