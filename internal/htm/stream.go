package htm

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// MemoDraws bounds the memo of a seed's spontaneous-abort stream: its
// first 256 Ki draws, 1 MiB once some System of the seed has drawn that
// many. The memo is filled a page of memoPage draws at a time, so a seed
// holds what the longest run of any of its Systems drew, rounded up to
// 4 KiB. Draws past it come from a System's private generator.
const (
	MemoDraws = 1 << 18
	memoPage  = 1 << 10
)

// streamsKept is how many seeds the registry keeps: the most recently
// requested ones. A stream it drops lives on in the Systems holding it,
// and a later System of that seed starts a new one.
const streamsKept = 16

// stream is the memo of one seed's spontaneous-abort stream, shared by
// every System of that seed. Draw i is the i-th
// rand.New(rand.NewSource(seed)).Intn(1_000_000).
//
// Pages are filled in order by the stream's own generator under mu and
// published through pages[k] once full; a published page is never
// written again, so a reader needs only the atomic load.
type stream struct {
	seed  int64
	pages [MemoDraws / memoPage]atomic.Pointer[[memoPage]uint32]

	mu     sync.Mutex
	filled int        // pages published
	rng    *rand.Rand // has produced filled*memoPage draws; nil once all pages are
}

// fill publishes the pages up to and including k, in order.
func (st *stream) fill(k uint64) *[memoPage]uint32 {
	st.mu.Lock()
	defer st.mu.Unlock()
	for uint64(st.filled) <= k {
		if st.rng == nil {
			st.rng = rand.New(rand.NewSource(st.seed))
		}
		p := new([memoPage]uint32)
		for j := range p {
			p[j] = uint32(st.rng.Intn(1_000_000))
		}
		st.pages[st.filled].Store(p)
		if st.filled++; st.filled == len(st.pages) {
			st.rng = nil
		}
	}
	return st.pages[k].Load()
}

// registry holds the streams of the streamsKept most recently requested
// seeds, the most recent last.
var registry struct {
	sync.Mutex
	kept []*stream
}

// streamOf returns the stream of seed, creating it if the registry does
// not keep one.
func streamOf(seed int64) *stream {
	registry.Lock()
	defer registry.Unlock()
	kept := registry.kept
	for i, st := range kept {
		if st.seed == seed {
			copy(kept[i:], kept[i+1:])
			kept[len(kept)-1] = st
			return st
		}
	}
	st := &stream{seed: seed}
	if len(kept) == streamsKept {
		kept = append(kept[:0], kept[1:]...)
	}
	registry.kept = append(kept, st)
	return st
}

// draw returns the next spontaneous-event sample, uniform in [0, 1e6).
// Inside a published memo page it is a load and an index; drawSlow
// handles the rest.
func (s *System) draw() uint64 {
	if i := s.draws; i < MemoDraws {
		if p := s.stream.pages[i/memoPage].Load(); p != nil {
			s.draws++
			return uint64(p[i%memoPage])
		}
	}
	return s.drawSlow()
}

// drawSlow returns the next draw when it lies in a memo page not yet
// published, which it fills, or past the memo.
func (s *System) drawSlow() uint64 {
	i := s.draws
	s.draws++
	if i < MemoDraws {
		return uint64(s.stream.fill(i / memoPage)[i%memoPage])
	}
	return s.generate(i)
}

// generate produces draw i, past the memo, from the System's private
// generator: seeded on first use, re-seeded in place when it is already
// past i, and advanced to i.
func (s *System) generate(i uint64) uint64 {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.cfg.Seed))
	} else if s.rngPos > i {
		s.rng.Seed(s.cfg.Seed)
		s.rngPos = 0
	}
	for ; s.rngPos < i; s.rngPos++ {
		s.rng.Intn(1_000_000)
	}
	s.rngPos++
	return uint64(s.rng.Intn(1_000_000))
}
