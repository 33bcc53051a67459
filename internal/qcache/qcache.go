// Package qcache is the query-result cache behind the goal-oriented read
// endpoints: marshaled responses keyed by (goal, bindings, program), stamped
// with the store.Versioned sequence they were computed at, and invalidated
// by the commit stream.
//
// The invalidation contract leans on the IVM commit classifier
// (ivm.RelevantMutations): a commit that cannot move the derived relations
// — a person node, a family edge, an augmentation-materialized link — keeps
// every derived-class entry alive, so hot point queries survive unrelated
// write traffic; a relevant commit flushes everything. Entries computed
// from caller-supplied programs (ClassAny) cannot be classified against a
// fixed rule set and drop on every commit.
//
// Concurrency: lookups and stores take one mutex; misses are single-flight
// per key, so a thundering herd on a cold hot-key runs one chase, not N.
// A flush during an in-flight computation orphans the call — waiters that
// joined it still get its result (their requests began before the commit),
// but the result is not stored, and a reader that arrives after the commit
// starts its own computation instead of joining the orphan, so no reader
// that arrives after the commit can observe pre-commit state.
package qcache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Class partitions entries by what can invalidate them.
type Class int

const (
	// ClassDerived marks answers over the built-in derived relations
	// (control, accown, closeLink, and their goal forms): invalidated only
	// by commits the IVM classifier deems relevant.
	ClassDerived Class = iota
	// ClassAny marks answers of arbitrary caller-supplied programs: any
	// commit may change them, so every commit invalidates.
	ClassAny
)

// DefaultMaxBytes sizes the cache when the caller does not: 64 MiB of
// marshaled responses.
const DefaultMaxBytes = 64 << 20

// Stats is a point-in-time counter snapshot, surfaced in /v1/metrics.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
	Bytes         int64  `json:"bytes"`
	MaxBytes      int64  `json:"maxBytes"`
}

type entry struct {
	key   string
	val   []byte
	seq   uint64
	class Class
	elem  *list.Element
}

// call is one in-flight computation; waiters block on done.
type call struct {
	done chan struct{}
	val  []byte
	seq  uint64
	tok  Token
	err  error
}

// Cache is a byte-budgeted LRU of marshaled query responses. The zero value
// is not usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	max      int64
	bytes    int64
	entries  map[string]*entry
	lru      *list.List // front = most recent; values are *entry
	inflight map[string]*call
	// gen is bumped under mu on every invalidation, staling in-flight
	// calls; Token reads it without the lock.
	gen atomic.Uint64

	hits, misses, evictions, invalidations uint64
}

// New builds a cache holding at most maxBytes of response payloads;
// maxBytes <= 0 selects DefaultMaxBytes.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		max:      maxBytes,
		entries:  map[string]*entry{},
		lru:      list.New(),
		inflight: map[string]*call{},
	}
}

// entryOverhead approximates the bookkeeping bytes per entry (key copy, map
// slot, list element) charged against the budget alongside the payload.
const entryOverhead = 128

// Get returns the cached payload and the sequence it answers for, if
// present. The sequence may trail the store's current one: entries survive
// commits classified irrelevant, and the stamped seq tells the client which
// version the answer is exact for.
func (c *Cache) Get(key string) ([]byte, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, 0, false
	}
	c.hits++
	c.lru.MoveToFront(e.elem)
	return e.val, e.seq, true
}

// Token is a cache generation: every invalidation (OnCommit, Flush) moves
// it on. A reader takes one before it pins the version its computation will
// read (see DoToken).
type Token uint64

// Token returns the current generation.
func (c *Cache) Token() Token { return Token(c.gen.Load()) }

// Do is DoToken with a token taken now, for callers whose computation reads
// no version pinned earlier.
func (c *Cache) Do(key string, class Class, seq uint64, compute func() ([]byte, error)) (val []byte, entrySeq uint64, hit bool, err error) {
	return c.DoToken(c.Token(), key, class, seq, compute)
}

// DoToken returns the cached payload for key, or computes, stores, and
// returns it. seq must be the store sequence the computation reads at, and
// tok a Token taken before that version was pinned: the payload is stored
// only if no invalidation happened since tok, so an answer computed over a
// version that a commit or a new root has since replaced never serves later
// readers. A miss joins a computation already in flight for key only when
// that computation was started under the same token. hit reports whether the
// payload came from the cache (possibly from another goroutine's
// just-finished computation); entrySeq is the sequence the payload answers
// for. Errors are returned to every waiter and never cached.
func (c *Cache) DoToken(tok Token, key string, class Class, seq uint64, compute func() ([]byte, error)) (val []byte, entrySeq uint64, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		return e.val, e.seq, true, nil
	}
	if cl, ok := c.inflight[key]; ok && cl.tok == tok {
		c.mu.Unlock()
		<-cl.done
		return cl.val, cl.seq, true, cl.err
	}
	c.misses++
	cl := &call{done: make(chan struct{}), seq: seq, tok: tok}
	c.inflight[key] = cl
	c.mu.Unlock()

	cl.val, cl.err = compute()
	close(cl.done)

	c.mu.Lock()
	if c.inflight[key] == cl {
		delete(c.inflight, key)
	}
	if cl.err == nil && uint64(tok) == c.gen.Load() {
		c.storeLocked(key, cl.val, seq, class)
	}
	c.mu.Unlock()
	return cl.val, seq, false, cl.err
}

// Put stores a payload directly (used by paths that compute without
// single-flight, e.g. warmed entries).
func (c *Cache) Put(key string, class Class, seq uint64, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeLocked(key, val, seq, class)
}

func (c *Cache) storeLocked(key string, val []byte, seq uint64, class Class) {
	size := int64(len(val)) + int64(len(key)) + entryOverhead
	if size > c.max {
		return // larger than the whole budget: never cacheable
	}
	if old, ok := c.entries[key]; ok {
		c.bytes -= int64(len(old.val)) + int64(len(old.key)) + entryOverhead
		c.lru.Remove(old.elem)
		delete(c.entries, key)
	}
	e := &entry{key: key, val: val, seq: seq, class: class}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += size
	for c.bytes > c.max {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail.Value.(*entry))
		c.evictions++
	}
}

func (c *Cache) removeLocked(e *entry) {
	c.bytes -= int64(len(e.val)) + int64(len(e.key)) + entryOverhead
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
}

// OnCommit applies the invalidation contract for one committed journal:
// relevant commits flush every entry; irrelevant ones flush only ClassAny
// entries (arbitrary programs can observe any mutation) and leave derived
// answers alive. In-flight computations are staled either way — their
// results will not be stored. The seq parameter is the post-commit sequence
// (accepted for symmetry with the commit hook; the contract needs only the
// classification).
func (c *Cache) OnCommit(seq uint64, relevant bool) {
	_ = seq
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen.Add(1)
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*entry)
		if relevant || e.class == ClassAny {
			c.removeLocked(e)
			c.invalidations++
		}
	}
}

// Flush drops every entry (used on baseline rebuilds and follower snapshot
// re-bootstraps, where no journal describes the jump).
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen.Add(1)
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		c.removeLocked(el.Value.(*entry))
		c.invalidations++
		el = next
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       len(c.entries),
		Bytes:         c.bytes,
		MaxBytes:      c.max,
	}
}
