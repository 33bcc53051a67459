package reasonapi

import (
	"sync"
	"sync/atomic"
	"time"

	"vadalink/internal/datalog"
	"vadalink/internal/relstore"
	"vadalink/internal/store"
)

// The relational image of the served version (DESIGN.md §15): company,
// person and own as one frozen datalog.Base that every request-path chase
// at that version mounts instead of re-extracting the graph.
//
// One slot holds the image of one published *store.Version, keyed by the
// version pointer: versions are immutable, so an image never goes stale,
// and a new version simply takes over the slot (the old image lives on only
// in the engines still using it). The slot is filled lazily by the first
// request that needs it — never at start-up or commit — and concurrent
// requests share that one build. A request that pinned a version which is
// no longer current builds a private image rather than evicting the
// current one.

// imageSlot is the image of one version, built at most once.
type imageSlot struct {
	ver  *store.Version
	once sync.Once
	base atomic.Pointer[datalog.Base] // set once the build finishes
}

// imageCounters is the build bookkeeping behind /v1/metrics' "image".
type imageCounters struct {
	builds, privateBuilds atomic.Uint64
	buildNanos            atomic.Int64
}

// ImageStats reports relational-image builds in /v1/metrics. A build per
// request (Builds tracking point misses one for one while the version does
// not move) is the pathology the slot exists to prevent.
type ImageStats struct {
	// Builds counts images built, shared and private; PrivateBuilds those
	// built for a pinned version that was no longer current.
	Builds        uint64 `json:"builds"`
	PrivateBuilds uint64 `json:"privateBuilds"`
	// BuildMillis is the total time spent building images.
	BuildMillis float64 `json:"buildMillis"`
	// Seq, Facts and IndexBytes describe the image in the slot: the version
	// it belongs to, its fact count, and the positional-index memory that
	// requests have built on it so far (charged here, not to any request's
	// Budget.MaxIndexBytes). All zero until the first build completes.
	Seq        uint64 `json:"seq"`
	Facts      int    `json:"facts"`
	IndexBytes int64  `json:"indexBytes"`
}

// image returns the relational image of ver, building it at most once while
// ver is the current version.
func (s *Server) image(ver *store.Version) *datalog.Base {
	for {
		slot := s.img.Load()
		if slot != nil && slot.ver == ver {
			slot.once.Do(func() { slot.base.Store(s.buildImage(ver)) })
			return slot.base.Load()
		}
		if ver != s.vs.Current() {
			s.imgStats.privateBuilds.Add(1)
			return s.buildImage(ver)
		}
		s.img.CompareAndSwap(slot, &imageSlot{ver: ver})
	}
}

func (s *Server) buildImage(ver *store.Version) *datalog.Base {
	start := time.Now()
	b := relstore.Image(ver.View())
	s.imgStats.buildNanos.Add(int64(time.Since(start)))
	s.imgStats.builds.Add(1)
	return b
}

// goalOptions is engineOptions plus the mounted image of ver: the options of
// every request-path chase over the graph's relational image.
func (s *Server) goalOptions(ver *store.Version) []datalog.Option {
	return append(s.engineOptions(), datalog.WithBase(s.image(ver)))
}

func (s *Server) imageStats() *ImageStats {
	st := &ImageStats{
		Builds:        s.imgStats.builds.Load(),
		PrivateBuilds: s.imgStats.privateBuilds.Load(),
		BuildMillis:   float64(s.imgStats.buildNanos.Load()) / float64(time.Millisecond),
	}
	if slot := s.img.Load(); slot != nil {
		if b := slot.base.Load(); b != nil {
			st.Seq, st.Facts, st.IndexBytes = slot.ver.Seq(), b.NumFacts(), b.IndexBytes()
		}
	}
	return st
}
