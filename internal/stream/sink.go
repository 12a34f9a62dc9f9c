// Package stream is the online learning loop of the serving system: it
// turns the serving binary into a learner by ingesting click feedback
// while requests are being scored, folding it into incremental
// sufficient statistics, and periodically publishing refitted model
// versions into the engine's hot-swap table.
//
// The paper fits its micro- and macro-browsing models from logged
// impressions; this package closes that loop for live traffic. Three
// pieces, wired by a Learner:
//
//   - Sink: a sharded, lock-minimal ingest queue. Producers (the HTTP
//     feedback handler) offer a body's events as one run into N shards,
//     each owning a bounded append buffer: the run fills the shard under
//     a round-robin cursor and spills into the next, and what no shard
//     has room for is dropped and counted rather than blocking the
//     serving path. Bounded is not preallocated: a buffer grows to what
//     the shard has had to hold and no further, and the run that
//     half-fills a shard (at most 4096 events) wakes the learner's fold,
//     so what the queue holds follows the feedback rate and not a timer.
//   - Accumulation: each shard folds its drained events into its own
//     clickmodel.Stats delta (counting-family sufficient statistics),
//     a ring of recent raw sessions (the mini-batch window for the
//     EM-family models) and per-term impression/click counts (the
//     micro model). One fold walks the shards that hold events on at
//     most GOMAXPROCS-1 strands, the caller's goroutine being the
//     first, so a reader always has a core.
//   - Publisher: on every interval the deltas are merged into a global
//     decayed table, each configured model is refitted — closed-form
//     from the global statistics, windowed EM from the session ring,
//     term-count ratios for micro — and installed as a fresh engine
//     version (source "online"). Rollback and version pinning keep
//     working: every publish is an ordinary immutable install.
//
// See DESIGN.md ("online learning loop") for the layering picture.
package stream

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/clickmodel"
)

// Event is one unit of click feedback: macro evidence (a SERP session
// with its click pattern), micro evidence (aggregated impressions and
// clicks of one snippet), or both.
type Event struct {
	// Session is the macro evidence: one query impression.
	Session *clickmodel.Session `json:"session,omitempty"`
	// Snippet is the micro evidence: one snippet's aggregated counts.
	Snippet *SnippetEvent `json:"snippet,omitempty"`

	// enqueuedNS is stamped by the learner's ingest (UnixNano, one
	// clock read per run) so the fold that eventually absorbs the event
	// can record how long it sat in the sink — the offer→fold lag
	// histogram. Zero (events offered directly to a Sink, WAL replay)
	// records nothing.
	enqueuedNS int64
}

// SnippetEvent aggregates observed impressions and clicks of one
// snippet, the micro model's unit of feedback.
type SnippetEvent struct {
	Lines       []string `json:"lines"`
	Impressions int      `json:"impressions"`
	Clicks      int      `json:"clicks"`
}

// Validate reports whether the snippet feedback is well-formed.
func (e *SnippetEvent) Validate() error {
	if len(e.Lines) == 0 {
		return errors.New("stream: snippet feedback has no lines")
	}
	if e.Impressions <= 0 {
		return errors.New("stream: snippet feedback needs impressions > 0")
	}
	if e.Clicks < 0 || e.Clicks > e.Impressions {
		return errors.New("stream: snippet clicks outside [0, impressions]")
	}
	return nil
}

// ErrDropped is returned by Ingest when every shard buffer is full: the
// event was counted as dropped, not queued. Producers treat it as
// backpressure, not failure.
var ErrDropped = errors.New("stream: ingest queue saturated, event dropped")

// sinkShard is one ingest lane: a mutex and two swap buffers. Both
// start nil and grow by append to the most events the shard has held
// between two drains — the sink's bound limits their length, nothing
// sizes them ahead of the traffic. The pad keeps neighbouring shards off
// one cache line so producers on different shards do not false-share.
type sinkShard struct {
	mu    sync.Mutex
	buf   []Event // producers append here (len bounded by Sink.queueCap)
	spare []Event // drained buffer, swapped in by DrainShard
	_     [64]byte
}

// Sink is the concurrent ingest front of the online loop: runs of
// events are distributed round-robin over shards and buffered until a
// drainer folds them. Offering is safe for any number of concurrent
// producers and allocates nothing on the steady-state accept path; a
// saturated sink drops events rather than blocking.
type Sink struct {
	shards   []sinkShard
	queueCap int // a shard holding this many events drops the next
	fillAt   int // a shard reaching this many events asks for a fold
	// filled carries that request to whoever drains the sink (the
	// Learner's loop). One slot: a fold drains every shard that holds
	// events, so requests made while one is pending add nothing, and one
	// made while a fold runs is kept for the next.
	filled chan struct{}
	cursor atomic.Uint64
	queued atomic.Uint64 // accepted into a shard buffer
	drops  atomic.Uint64 // rejected because no shard had room
}

// maxFill is the most events a shard collects before it asks for a
// fold: a few thousand events fold in about a millisecond, which keeps
// the drainer's turns short however large the bound is.
const maxFill = 4096

// NewSink returns a sink with the given shard count and per-shard bound
// on buffered events (values < 1 become 1 and 1024). The bound is a drop
// threshold, not a reservation: no event buffer exists until events
// arrive.
func NewSink(shards, queueCap int) *Sink {
	if shards < 1 {
		shards = 1
	}
	if queueCap < 1 {
		queueCap = 1024
	}
	return &Sink{
		shards:   make([]sinkShard, shards),
		queueCap: queueCap,
		// Half the bound, so the other half absorbs what arrives while
		// the fold is on its way. A rule and not a setting: it trades fold
		// size against fold count, and no deployment wants another answer.
		fillAt: max(1, min(queueCap/2, maxFill)),
		filled: make(chan struct{}, 1),
	}
}

// OfferRun enqueues a run of events — one request body's worth — and
// returns how many it accepted, always a prefix of evs. The run fills
// the shard under the cursor up to its bound and goes on to the shards
// after it; only what no shard has room for is dropped and counted.
// Acceptance goes by a buffer's length, never its capacity: append's
// doubling may leave room past the bound, and that room is not queue. A
// run that takes a shard across its fill mark leaves one token for the
// drainer and never waits for it.
//
//mb:noalloc
func (s *Sink) OfferRun(evs []Event) int {
	if len(evs) == 0 {
		return 0
	}
	i := int(s.cursor.Add(1) % uint64(len(s.shards)))
	taken, fill := 0, false
	for k := 0; k < len(s.shards) && taken < len(evs); k++ {
		sh := &s.shards[i]
		sh.mu.Lock()
		held := len(sh.buf)
		n := min(s.queueCap-held, len(evs)-taken)
		sh.buf = append(sh.buf, evs[taken:taken+n]...)
		sh.mu.Unlock()
		taken += n
		fill = fill || held < s.fillAt && held+n >= s.fillAt
		if i++; i == len(s.shards) {
			i = 0
		}
	}
	s.queued.Add(uint64(taken))
	if taken < len(evs) {
		s.drops.Add(uint64(len(evs) - taken))
	}
	if fill {
		select {
		case s.filled <- struct{}{}:
		default:
		}
	}
	return taken
}

// holding appends to dst the shards that hold events right now.
func (s *Sink) holding(dst []int) []int {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n := len(sh.buf)
		sh.mu.Unlock()
		if n > 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// DrainShard swaps shard i's buffer out (one short critical section)
// and runs fold over every drained event, returning how many there
// were. At most one drainer may work a given shard at a time; the
// Learner serialises this with its own lock.
func (s *Sink) DrainShard(i int, fold func(*Event)) int {
	sh := &s.shards[i]
	sh.mu.Lock()
	full := sh.buf
	sh.buf = sh.spare[:0]
	sh.mu.Unlock()
	for j := range full {
		fold(&full[j])
	}
	n := len(full)
	// Drop the event pointers so folded sessions are collectable, then
	// park the buffer as the next swap target.
	clear(full)
	sh.spare = full[:0]
	return n
}

// Shards returns the shard count.
func (s *Sink) Shards() int { return len(s.shards) }

// Queued returns the number of events ever accepted into a buffer.
func (s *Sink) Queued() uint64 { return s.queued.Load() }

// Dropped returns the number of events rejected on saturation.
func (s *Sink) Dropped() uint64 { return s.drops.Load() }
