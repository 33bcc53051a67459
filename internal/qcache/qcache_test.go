package qcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"vadalink/internal/ivm"
	"vadalink/internal/pg"
)

func TestHitMissAndSeqStamp(t *testing.T) {
	c := New(1 << 20)
	v, seq, hit, err := c.Do("k1", ClassDerived, 7, func() ([]byte, error) { return []byte("answer"), nil })
	if err != nil || hit || string(v) != "answer" || seq != 7 {
		t.Fatalf("first Do: v=%q seq=%d hit=%v err=%v", v, seq, hit, err)
	}
	v, seq, hit, err = c.Do("k1", ClassDerived, 9, func() ([]byte, error) {
		t.Fatal("compute must not run on a hit")
		return nil, nil
	})
	if err != nil || !hit || string(v) != "answer" || seq != 7 {
		t.Fatalf("second Do must hit at the original seq: v=%q seq=%d hit=%v err=%v", v, seq, hit, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	if _, _, _, err := c.Do("k", ClassDerived, 1, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	calls := 0
	if _, _, hit, err := c.Do("k", ClassDerived, 1, func() ([]byte, error) { calls++; return []byte("ok"), nil }); err != nil || hit {
		t.Fatalf("after an error the next Do must recompute: hit=%v err=%v", hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute calls: %d", calls)
	}
}

func TestSingleFlight(t *testing.T) {
	c := New(1 << 20)
	var computes atomic.Int64
	gate := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, _, err := c.Do("hot", ClassDerived, 3, func() ([]byte, error) {
				computes.Add(1)
				<-gate
				return []byte("once"), nil
			})
			if err != nil || string(v) != "once" {
				t.Errorf("worker: v=%q err=%v", v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("thundering herd ran %d computations, want 1", n)
	}
}

func TestByteBudgetEviction(t *testing.T) {
	// Budget fits roughly 4 of the 1 KiB entries (plus overhead).
	c := New(4 * (1024 + 8 + entryOverhead))
	payload := make([]byte, 1024)
	for i := 0; i < 8; i++ {
		c.Put(fmt.Sprintf("key-%03d", i), ClassDerived, uint64(i), payload)
	}
	st := c.Stats()
	if st.Entries != 4 || st.Evictions != 4 {
		t.Fatalf("stats after overflow: %+v", st)
	}
	// LRU: the oldest keys are gone, the newest survive.
	if _, _, ok := c.Get("key-000"); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	if _, _, ok := c.Get("key-007"); !ok {
		t.Fatal("newest entry should have survived")
	}
	// An entry larger than the whole budget is refused, not thrashed.
	c.Put("giant", ClassDerived, 9, make([]byte, 1<<20))
	if _, _, ok := c.Get("giant"); ok {
		t.Fatal("over-budget entry must not be stored")
	}
}

// journal builders matching the IVM vocabulary.
func shareholdingEdge(from, to pg.NodeID) []pg.Mutation {
	return []pg.Mutation{{Kind: pg.MutAddEdge, Edge: &pg.Edge{From: from, To: to, Label: pg.LabelShareholding, Props: pg.Properties{pg.WeightProp: 0.5}}}}
}

func personNode(id pg.NodeID) []pg.Mutation {
	return []pg.Mutation{{Kind: pg.MutAddNode, Node: &pg.Node{ID: id, Label: pg.LabelPerson}}}
}

func TestInvalidationFollowsIVMClassifier(t *testing.T) {
	c := New(1 << 20)
	c.Put("control(4,Y)", ClassDerived, 10, []byte("derived"))
	c.Put("custom-program", ClassAny, 10, []byte("custom"))

	// Irrelevant commit (person node, no edges): derived entries survive,
	// custom-program entries drop.
	muts := personNode(99)
	if ivm.RelevantMutations(muts) {
		t.Fatal("person node should classify irrelevant")
	}
	c.OnCommit(11, ivm.RelevantMutations(muts))
	if _, seq, ok := c.Get("control(4,Y)"); !ok || seq != 10 {
		t.Fatalf("derived entry must survive an irrelevant commit (ok=%v seq=%d)", ok, seq)
	}
	if _, _, ok := c.Get("custom-program"); ok {
		t.Fatal("ClassAny entry must drop on every commit")
	}

	// Relevant commit (shareholding edge): everything flushes.
	muts = shareholdingEdge(1, 2)
	if !ivm.RelevantMutations(muts) {
		t.Fatal("shareholding edge should classify relevant")
	}
	c.OnCommit(12, ivm.RelevantMutations(muts))
	if _, _, ok := c.Get("control(4,Y)"); ok {
		t.Fatal("derived entry must drop on a relevant commit")
	}
	st := c.Stats()
	if st.Invalidations != 2 {
		t.Fatalf("invalidations: %+v", st)
	}
}

func TestRelevantMutationsClassification(t *testing.T) {
	cases := []struct {
		name string
		muts []pg.Mutation
		want bool
	}{
		{"empty", nil, false},
		{"person add", personNode(1), false},
		{"company add", []pg.Mutation{{Kind: pg.MutAddNode, Node: &pg.Node{ID: 1, Label: pg.LabelCompany}}}, true},
		{"node remove", []pg.Mutation{{Kind: pg.MutRemoveNode, Node: &pg.Node{ID: 1, Label: pg.LabelPerson}}}, true},
		{"shareholding edge", shareholdingEdge(1, 2), true},
		{"weight change", []pg.Mutation{{Kind: pg.MutSetEdgeWeight, Edge: &pg.Edge{From: 1, To: 2, Label: pg.LabelShareholding, Props: pg.Properties{pg.WeightProp: 0.9}}}}, true},
		{"family edge", []pg.Mutation{{Kind: pg.MutAddEdge, Edge: &pg.Edge{From: 1, To: 2, Label: pg.LabelFamily}}}, false},
		{"nil node", []pg.Mutation{{Kind: pg.MutAddNode}}, true},
		{"nil edge", []pg.Mutation{{Kind: pg.MutAddEdge}}, true},
		{"mixed irrelevant+relevant", append(personNode(3), shareholdingEdge(1, 2)...), true},
	}
	for _, tc := range cases {
		if got := ivm.RelevantMutations(tc.muts); got != tc.want {
			t.Errorf("%s: RelevantMutations = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestFlushDuringInflightIsNotStored(t *testing.T) {
	c := New(1 << 20)
	started := make(chan struct{})
	finish := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, hit, err := c.Do("k", ClassDerived, 5, func() ([]byte, error) {
			close(started)
			<-finish
			return []byte("stale"), nil
		})
		// The caller still gets its answer (its request predates the commit)…
		if err != nil || hit || string(v) != "stale" {
			panic(fmt.Sprintf("inflight caller: v=%q hit=%v err=%v", v, hit, err))
		}
	}()
	<-started
	c.OnCommit(6, true) // relevant commit lands mid-computation
	close(finish)
	<-done
	// …but the stale result must not serve post-commit readers.
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("result computed before the commit must not be cached after it")
	}
}

// TestFlushBetweenPinAndComputeIsNotStored covers the window before the
// computation starts: the reader took its token, pinned its version, and a
// flush (a replica's new root) landed before DoToken ran. The answer reads
// the replaced history, so it must not be stored.
func TestFlushBetweenPinAndComputeIsNotStored(t *testing.T) {
	c := New(1 << 20)
	tok := c.Token()
	c.Flush()
	v, _, hit, err := c.DoToken(tok, "k", ClassDerived, 5, func() ([]byte, error) { return []byte("stale"), nil })
	if err != nil || hit || string(v) != "stale" {
		t.Fatalf("DoToken: v=%q hit=%v err=%v", v, hit, err)
	}
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("an answer over a version pinned before the flush was cached")
	}
	if _, _, _, err := c.DoToken(c.Token(), "k", ClassDerived, 6, func() ([]byte, error) { return []byte("fresh"), nil }); err != nil {
		t.Fatal(err)
	}
	if v, seq, ok := c.Get("k"); !ok || string(v) != "fresh" || seq != 6 {
		t.Fatalf("a current-token answer was not cached: v=%q seq=%d ok=%v", v, seq, ok)
	}
}

// TestNewTokenDoesNotJoinOrphanedCall: a reader arriving after a commit must
// not be handed the in-flight answer computed over the pre-commit version.
func TestNewTokenDoesNotJoinOrphanedCall(t *testing.T) {
	c := New(1 << 20)
	started, finish, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		_, _, _, _ = c.Do("k", ClassDerived, 5, func() ([]byte, error) {
			close(started)
			<-finish
			return []byte("stale"), nil
		})
	}()
	<-started
	c.OnCommit(6, true)
	v, seq, hit, err := c.DoToken(c.Token(), "k", ClassDerived, 6, func() ([]byte, error) { return []byte("fresh"), nil })
	if err != nil || hit || string(v) != "fresh" || seq != 6 {
		t.Fatalf("post-commit reader: v=%q seq=%d hit=%v err=%v, want its own fresh computation", v, seq, hit, err)
	}
	close(finish)
	<-done
	if v, _, ok := c.Get("k"); !ok || string(v) != "fresh" {
		t.Fatalf("cache holds %q (ok=%v), want the post-commit answer", v, ok)
	}
}

func TestFlush(t *testing.T) {
	c := New(1 << 20)
	c.Put("a", ClassDerived, 1, []byte("x"))
	c.Put("b", ClassAny, 1, []byte("y"))
	c.Flush()
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Invalidations != 2 {
		t.Fatalf("after Flush: %+v", st)
	}
}

func TestDefaultBudget(t *testing.T) {
	c := New(0)
	if st := c.Stats(); st.MaxBytes != DefaultMaxBytes {
		t.Fatalf("default budget: %+v", st)
	}
}
