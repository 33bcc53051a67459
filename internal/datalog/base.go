package datalog

import (
	"maps"
	"slices"
	"sync/atomic"
)

// Base is a frozen extensional database: relations built once and shared
// read-only by every engine constructed WithBase. Its purpose is the
// relational image of one immutable graph version (relstore.Image), which
// every goal read at that version needs in full but derives only a small
// cone from: mounting the image costs one map entry per predicate instead of
// one key string, map insert and index entry per fact.
//
// Mount rule: NewEngine places the base's relations into the engine by
// pointer. The first write an engine makes to a mounted predicate — a rule
// deriving it, or a caller's Assert/Retract — replaces the engine's pointer
// with a private copy first, so a mounted relation is never written and
// engines stay isolated from one another.
//
// Concurrency: a Base is safe for any number of concurrent engines. Its
// facts and key sets never change after NewBase; positional indexes are
// still built lazily on first probe, double-checked under the relation's
// mutex exactly as for a private relation. The bytes of those shared
// indexes accrue to the Base (IndexBytes), not to the Budget.MaxIndexBytes
// of whichever engine happened to probe first: they are bounded by the
// image's size and built once per version, and charging them to a request
// would make its budget depend on the order requests arrived in.
type Base struct {
	rels       map[string]*relation
	facts      int
	indexBytes atomic.Int64
}

// NewBase builds a frozen base holding facts (duplicates collapse, as with
// AssertAll). The slice and its argument slices must not be mutated
// afterwards.
func NewBase(facts []Fact) *Base {
	b := &Base{rels: make(map[string]*relation)}
	for _, f := range facts {
		r, ok := b.rels[f.Pred]
		if !ok {
			r = newRelation()
			b.rels[f.Pred] = r
		}
		if isNew, _ := r.insert(f, f.Key()); isNew {
			b.facts++
		}
	}
	for _, r := range b.rels {
		r.frozen = true
	}
	return b
}

// NumFacts reports the number of distinct facts in the base.
func (b *Base) NumFacts() int { return b.facts }

// IndexBytes reports the estimated memory of the positional indexes built
// on the base so far by the engines that mount it.
func (b *Base) IndexBytes() int64 { return b.indexBytes.Load() }

// WithBase mounts a frozen extensional base into the engine (see Base for
// the mount rule). The engine's own Assert calls add to it; the base itself
// is never written.
func WithBase(b *Base) Option {
	return func(o *Options) { o.Base = b }
}

// thaw returns a private, writable copy of a mounted relation. Facts are
// immutable values and are shared; the fact slice and key set are copied,
// and indexes are rebuilt lazily on the copy's first probe.
func (r *relation) thaw() *relation {
	return &relation{
		facts: slices.Clone(r.facts),
		keys:  maps.Clone(r.keys),
		index: make([]map[any][]int, len(r.index)),
	}
}

// buildIndex builds r's positional index at pos on first use and accounts
// for it: to the mounted Base when r is shared, to this engine's
// MaxIndexBytes budget otherwise.
func (e *Engine) buildIndex(r *relation, pos int) {
	bytes, built := r.ensureIndex(pos)
	if !built {
		return
	}
	if r.frozen {
		e.opts.Base.indexBytes.Add(int64(bytes))
	} else {
		e.addIndexBytes(bytes)
	}
	if st := e.stats; st != nil {
		st.indexBuilds.Add(1)
	}
}
