package stream

import (
	"errors"
	"fmt"
	"log"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/textproc"
	"repro/internal/wal"
)

// Config parameterises a Learner.
type Config struct {
	// Models names what the loop trains and publishes: click-model
	// registry names ("pbm", "sdbn", ...) and/or "micro". Counting-
	// family models refit from the decayed global statistics; EM-family
	// models refit on the session window; "micro" rebuilds its
	// relevance table from accumulated term counts.
	Models []string
	// Interval is the publish cadence (default 30s).
	Interval time.Duration
	// Shards is the ingest fan-out (default GOMAXPROCS, capped at 16).
	Shards int
	// QueueCap is the bound on the events one shard may hold between two
	// folds (default 4096): the event past it is dropped. A bound, not a
	// buffer size — nothing is allocated for it ahead of the traffic.
	QueueCap int
	// Window bounds the raw-session ring the EM-family models refit on
	// (default 50000, split across shards).
	Window int
	// Decay in (0, 1) ages the counting statistics and micro term
	// counts by that factor per publish; 0 or 1 keeps all history.
	// With decay on, fully aged-out (query, doc) pairs and micro terms
	// are pruned on publish, so an open-ended query/doc space cannot
	// grow the tables with every pair ever seen.
	Decay float64
	// MinEvents gates scheduled publishes: fewer new feedback events
	// (sessions + snippets) than this since the last publish skips the
	// tick (default 1). Manual Publish calls ignore the gate.
	MinEvents int
	// Iterations caps EM rounds per windowed refit (default 5 — a
	// mini-batch refit polishes the previous publish, it does not need
	// offline-depth convergence).
	Iterations int
	// Attention is the attention layer stamped onto published micro
	// models (nil = FullAttention).
	Attention core.Attention
	// MicroMaxN is the n-gram order for micro term extraction
	// (default 2).
	MicroMaxN int
	// WAL, when set, makes the loop crash-safe: every event the sink
	// accepts is appended to the log, and New replays the log's
	// retained records into the accumulators before returning — so a
	// restarted process resumes with the feedback a crash would
	// otherwise forget (bounded by the WAL's fsync policy and
	// retention). The caller owns the WAL's lifecycle (Close it after
	// the learner).
	WAL *wal.WAL
	// Logger receives publish/skip lines; nil logs nothing.
	Logger *log.Logger
}

func (c *Config) defaults() {
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if c.Shards < 1 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 16 {
			c.Shards = 16
		}
	}
	if c.QueueCap < 1 {
		c.QueueCap = 4096
	}
	if c.Window < 1 {
		c.Window = 50000
	}
	if c.MinEvents < 1 {
		c.MinEvents = 1
	}
	if c.Iterations < 1 {
		c.Iterations = 5
	}
	if c.MicroMaxN < 1 {
		c.MicroMaxN = 2
	}
	c.MicroMaxN = textproc.GramOrder(c.MicroMaxN)
}

// termCount is one micro term's decayed impression/click mass.
type termCount struct{ imps, clicks float64 }

// termShard is one shard's micro accumulator between two merges: the
// terms sighted since the last merge, their counts by term ID in a slab
// beside the vocabulary (crediting a known term is a map read and two
// adds), and the scratch the shard's snippets are tokenised into.
type termShard struct {
	terms  textproc.Vocab
	counts []termDelta // by term ID
	// event numbers the snippet events the shard folds. A count stamped
	// with the current number has had this event's mass: each distinct
	// term is credited once per event without a set per event. 0: none.
	event uint32
	sc    textproc.Scratch
	_     [64]byte // shards fold concurrently: keep neighbours off one cache line
}

type termDelta struct {
	termCount
	event uint32
}

// sessionRing is one shard's slice of the EM mini-batch window.
type sessionRing struct {
	buf []clickmodel.Session
	n   int // filled
	at  int // next write
}

func (r *sessionRing) add(s clickmodel.Session) {
	r.buf[r.at] = s
	r.at = (r.at + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// Learner owns the online loop: a Sink for ingest, per-shard
// accumulators, and the publisher. Create with New, feed with IngestRun
// (a request body's events) or Ingest (one event), run the background
// publisher with Start/Close — or drive Publish
// directly (tests, manual retrain endpoints).
type Learner struct {
	cfg  Config
	eng  *engine.Engine
	sink *Sink
	wal  *wal.WAL

	invalid        atomic.Uint64
	foldedSessions atomic.Uint64
	foldedSnippets atomic.Uint64
	replayed       uint64      // set once in New, read-only after
	walDown        atomic.Bool // last WAL append failed (log edge-triggered)

	// Loop-health histograms (nanosecond samples, scraped by /metrics):
	// how long events queue before a fold absorbs them, how long folds
	// take, how long publishes take. Atomic recording — foldLag lands
	// from concurrent fold strands.
	foldLagH obs.Histogram
	foldH    obs.Histogram
	publishH obs.Histogram

	// mu serialises folding, merging and publishing; the ingest path
	// never takes it.
	mu         sync.Mutex
	deltas     []*clickmodel.Stats // per shard, reset on every merge
	idmaps     [][]int32           // per shard: delta pair ID -> global pair ID
	rings      []sessionRing       // per shard slice of the EM window; nil without an EM-family model
	termDeltas []termShard
	global     *clickmodel.Stats
	terms      map[string]termCount
	winScratch []clickmodel.Session

	// One fold's work list: the shards that held events when it began,
	// and the cursor its strands claim them with.
	foldShards []int
	foldCursor atomic.Int32
	strandHook func() // tests: called by every strand of a fold as it runs out of shards

	wantMicro bool
	windowed  map[string]bool // configured models that fit from the session window

	lastFolded uint64 // foldedSessions at the last publish
	lastInfos  []engine.ModelInfo

	// What Metrics reports of the state above, stored where it changes
	// (fold and replay, merge, publish, a skipped tick) so that a health
	// probe takes no lock: mu is held across a whole publish — every
	// configured fit — and a liveness check must not wait on EM.
	publishes, publishSkips, publishErrors atomic.Uint64
	lastPublish                            atomic.Int64  // nanoseconds
	window, pairs, microTerms              atomic.Int64  // EM window fill, global pairs, micro terms
	weight                                 atomic.Uint64 // math.Float64bits of the decayed session mass

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New validates the configuration and returns a ready Learner. Every
// configured model name must be "micro" or a click-model registry
// name.
func New(eng *engine.Engine, cfg Config) (*Learner, error) {
	if eng == nil {
		return nil, errors.New("stream: New needs an engine")
	}
	if len(cfg.Models) == 0 {
		return nil, errors.New("stream: no models configured (want registry names and/or \"micro\")")
	}
	cfg.defaults()
	l := &Learner{
		cfg:      cfg,
		eng:      eng,
		sink:     NewSink(cfg.Shards, cfg.QueueCap),
		global:   clickmodel.NewStats(),
		terms:    make(map[string]termCount),
		windowed: make(map[string]bool),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, name := range cfg.Models {
		if name == engine.NameMicro {
			l.wantMicro = true
			continue
		}
		m, err := clickmodel.New(name)
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		if !clickmodel.Counting(m) {
			l.windowed[name] = true
		}
	}
	shards := l.sink.Shards()
	l.deltas = make([]*clickmodel.Stats, shards)
	l.idmaps = make([][]int32, shards)
	l.termDeltas = make([]termShard, shards)
	for i := 0; i < shards; i++ {
		l.deltas[i] = clickmodel.NewStats()
	}
	if len(l.windowed) > 0 {
		// Only windowLocked reads the rings, and only an EM-family refit
		// calls it: counting-family models must not pin Window sessions.
		l.rings = make([]sessionRing, shards)
		for i := range l.rings {
			l.rings[i].buf = make([]clickmodel.Session, max(cfg.Window/shards, 1))
		}
	}
	if cfg.WAL != nil {
		l.wal = cfg.WAL
		if err := l.replayWAL(); err != nil {
			return nil, fmt.Errorf("stream: wal replay: %w", err)
		}
	}
	return l, nil
}

// replayWAL streams the log's retained records back into the shard
// accumulators, round-robin, before the learner is shared — the crash
// half of crash-safe learning. Replayed events count as folded, and
// Start publishes from them before the loop's first tick: a recovered
// model is re-installed without waiting for fresh traffic or a timer.
func (l *Learner) replayWAL() error {
	defer l.noteWindow()
	shard := 0
	return l.wal.Replay(func(_ uint64, rec *wal.Record) error {
		ev := Event{Session: rec.Session}
		var snip SnippetEvent
		if len(rec.SnippetLines) > 0 {
			snip = SnippetEvent{Lines: rec.SnippetLines, Impressions: rec.Impressions, Clicks: rec.Clicks}
			ev.Snippet = &snip
		}
		// Only validated events were logged; re-validate anyway so a
		// frame the CRC happened to pass cannot poison the statistics.
		if ev.Session != nil && ev.Session.Validate() != nil {
			ev.Session = nil
		}
		if ev.Snippet != nil && ev.Snippet.Validate() != nil {
			ev.Snippet = nil
		}
		if ev.Session == nil && ev.Snippet == nil {
			return nil
		}
		ns, nn := l.absorb(shard, &ev)
		l.foldedSessions.Add(ns)
		l.foldedSnippets.Add(nn)
		l.replayed += ns + nn
		shard = (shard + 1) % l.sink.Shards()
		return nil
	})
}

// Counts is what became of the events of one IngestRun: queued into the
// sink, dropped on saturation, or rejected as malformed.
type Counts struct{ Accepted, Dropped, Invalid int }

// errNoEvidence is hoisted so that rejecting an empty event allocates
// nothing.
var errNoEvidence = errors.New("stream: feedback event carries neither session nor snippet")

// validate reports whether the event is one the learner may fold: it
// carries a session or a snippet, and each it carries is well-formed.
func (ev *Event) validate() error {
	if ev.Session == nil && ev.Snippet == nil {
		return errNoEvidence
	}
	if ev.Session != nil {
		if err := ev.Session.Validate(); err != nil {
			return err
		}
	}
	if ev.Snippet != nil {
		return ev.Snippet.Validate()
	}
	return nil
}

// Ingest validates and enqueues one feedback event: IngestRun's code
// for a run of one. Malformed events return the validation error; a
// saturated sink returns ErrDropped. Safe for any number of concurrent
// callers; the accept path allocates nothing.
func (l *Learner) Ingest(ev Event) error {
	if err := ev.validate(); err != nil {
		l.invalid.Add(1)
		return err
	}
	one := [1]Event{ev}
	var rec [1]wal.Record
	if accepted, _ := l.enqueue(one[:], rec[:0]); accepted == 0 {
		return ErrDropped
	}
	return nil
}

// IngestRun validates and enqueues a run of feedback events — one
// request body's worth — and reports what became of them. Each event is
// validated and counted on its own; what belongs to the run is paid
// once: one clock read stamps every event, the valid ones are offered
// to the sink as one run and appended to the WAL as one run.
//
// The run works in the caller's memory. evs is rewritten: on return
// evs[:Accepted] are the accepted events, in order, and the rest of evs
// is left as scratch. recs is where the run's WAL records are built;
// pass the slice the previous call returned, and a caller that reuses
// both allocates nothing once they have grown to its largest run. Safe
// for any number of concurrent callers with their own slices.
//
//mb:noalloc
func (l *Learner) IngestRun(evs []Event, recs []wal.Record) (Counts, []wal.Record) {
	valid := evs[:0]
	for i := range evs {
		if evs[i].validate() == nil {
			valid = append(valid, evs[i])
		}
	}
	var n Counts
	if n.Invalid = len(evs) - len(valid); n.Invalid > 0 {
		l.invalid.Add(uint64(n.Invalid))
	}
	n.Accepted, recs = l.enqueue(valid, recs)
	n.Dropped = len(valid) - n.Accepted
	return n, recs
}

// enqueue stamps a run of valid events with one clock read, offers it
// to the sink, and appends what the sink accepted — a prefix of the run
// — to the WAL as one run, its records built in recs. It returns how
// many the sink accepted and recs for the next run.
//
//mb:noalloc
func (l *Learner) enqueue(evs []Event, recs []wal.Record) (int, []wal.Record) {
	now := time.Now().UnixNano()
	for i := range evs {
		evs[i].enqueuedNS = now
	}
	accepted := l.sink.offerRun(evs)
	if l.wal == nil || accepted == 0 {
		return accepted, recs
	}
	recs = recs[:0]
	for i := range evs[:accepted] {
		ev := &evs[i]
		rec := wal.Record{Session: ev.Session}
		if ev.Snippet != nil {
			rec.SnippetLines, rec.Impressions, rec.Clicks = ev.Snippet.Lines, ev.Snippet.Impressions, ev.Snippet.Clicks
		}
		recs = append(recs, rec)
	}
	_, err := l.wal.AppendRun(recs)
	clear(recs) // the log holds its own copies; scratch must not pin the events
	// Durability degraded but the events are in RAM and serving
	// continues; the WAL counters record every failure, the log line
	// fires only on the edge so a dead disk cannot spam. The Load keeps
	// the steady state off the CAS.
	if down := err != nil; l.walDown.Load() != down && l.walDown.CompareAndSwap(!down, down) && l.cfg.Logger != nil {
		if down {
			l.cfg.Logger.Printf("stream: wal append failed, learning is no longer crash-safe: %v", err) //mb:allocok the edge, logged once
		} else {
			l.cfg.Logger.Printf("stream: wal append recovered")
		}
	}
	return accepted, recs
}

// foldLocked is the one fold, whoever asks for it — a shard that
// reached its fill mark, the backstop ticker, a publish: it drains the
// shards that hold events, folding sessions into the shard's Stats delta
// and window ring and snippets into the shard's term counts. The shards
// are claimed from an atomic cursor by min(shards holding events,
// max(1, GOMAXPROCS-1)) strands, and the caller's goroutine is the
// first: one strand and no goroutine on two CPUs (a fold that fanned
// out there took both Ps from the reader beside it and cost more CPU
// than it saved), one P left for readers on any host. Each shard has
// one drainer and its own accumulators, and the counts are sums, so the
// result is the same on any number of strands. Caller holds l.mu.
func (l *Learner) foldLocked() {
	defer l.foldH.RecordSince(time.Now())
	l.foldShards = l.sink.holding(l.foldShards[:0])
	l.foldCursor.Store(0)
	helpers := min(len(l.foldShards), max(1, runtime.GOMAXPROCS(0)-1)) - 1
	var wg sync.WaitGroup
	for ; helpers > 0; helpers-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.foldStrand()
		}()
	}
	l.foldStrand()
	wg.Wait()
	l.noteWindow()
}

// foldStrand claims shards from the fold's work list until none is left
// and drains each into that shard's accumulators. The fold-lag clock is
// read once per shard, before its buffer is swapped out: an event
// offered in between reads as folded at once. Each event's lag goes
// into the strand's own tally, handed to the shared histogram once the
// strand is done, so concurrent strands write no common cache line per
// event.
func (l *Learner) foldStrand() {
	var lag obs.Tally
	for {
		k := int(l.foldCursor.Add(1)) - 1
		if k >= len(l.foldShards) {
			break
		}
		i := l.foldShards[k]
		var ns, nn uint64
		now := time.Now().UnixNano()
		l.sink.DrainShard(i, func(ev *Event) {
			if ev.enqueuedNS > 0 {
				lag.Record(uint64(max(now-ev.enqueuedNS, 0)))
			}
			s, n := l.absorb(i, ev)
			ns += s
			nn += n
		})
		if ns > 0 {
			l.foldedSessions.Add(ns)
		}
		if nn > 0 {
			l.foldedSnippets.Add(nn)
		}
	}
	l.foldLagH.Absorb(&lag)
	if l.strandHook != nil {
		l.strandHook()
	}
}

// noteWindow publishes the EM window's fill to Metrics. The caller owns
// every ring: a fold under l.mu, or replay before the learner is shared.
func (l *Learner) noteWindow() {
	n := 0
	for i := range l.rings {
		n += l.rings[i].n
	}
	l.window.Store(int64(n))
}

// absorb folds one event into shard i's accumulators (statistics
// delta, session ring, term counts), returning how many sessions and
// snippets it credited. Callers must own shard i: the strand that
// claimed it does, and replay runs before the learner is shared.
func (l *Learner) absorb(i int, ev *Event) (sessions, snippets uint64) {
	if ev.Session != nil {
		if l.deltas[i].Add(*ev.Session) == nil {
			if l.rings != nil {
				l.rings[i].add(*ev.Session)
			}
			sessions++
		}
	}
	if ev.Snippet != nil {
		l.foldSnippet(i, ev.Snippet)
		snippets++
	}
	return sessions, snippets
}

// foldSnippet credits every distinct term of the snippet with the
// event's impression and click mass. Each line is tokenised into the
// shard's scratch, where an n-gram is the contiguous bytes from its
// first token's start to its last token's end (tokens are joined by
// single spaces), and looked up as those bytes: only a term's first
// sighting since the last merge makes a string.
//
//mb:noalloc
func (l *Learner) foldSnippet(shard int, ev *SnippetEvent) {
	t := &l.termDeltas[shard]
	if t.event++; t.event == 0 {
		// The numbering wrapped: no count may still look credited by an
		// event 2^32 ago.
		for i := range t.counts {
			t.counts[i].event = 0
		}
		t.event = 1
	}
	imps, clicks := float64(ev.Impressions), float64(ev.Clicks)
	for _, line := range ev.Lines {
		spans := t.sc.Tokenize(line)
		for i := range spans {
			for n := 1; n <= l.cfg.MicroMaxN && i+n <= len(spans); n++ {
				term := t.sc.Norm[spans[i].Start:spans[i+n-1].End]
				id, known := t.terms.LookupBytes(term)
				if !known {
					id = t.terms.ID(string(term)) //mb:allocok a term's first sighting since the last merge
					t.counts = append(t.counts, termDelta{})
				}
				if d := &t.counts[id]; d.event != t.event {
					d.event = t.event
					d.imps += imps
					d.clicks += clicks
				}
			}
		}
	}
}

// pruneMass is the decayed impression mass below which a pair or term
// counts as fully aged out.
const pruneMass = 1e-3

// mergeLocked decays the global tables and folds every shard delta in.
// Caller holds l.mu.
func (l *Learner) mergeLocked() {
	decaying := l.cfg.Decay > 0 && l.cfg.Decay < 1
	if decaying {
		l.global.Decay(l.cfg.Decay)
		for term, tc := range l.terms {
			tc.imps *= l.cfg.Decay
			tc.clicks *= l.cfg.Decay
			if tc.imps < pruneMass {
				// Fully aged out: unbounded vocabularies are how online
				// learners leak.
				delete(l.terms, term)
				continue
			}
			l.terms[term] = tc
		}
	}
	for i, d := range l.deltas {
		l.idmaps[i] = l.global.Merge(d, l.idmaps[i])
		d.Reset()
	}
	for i := range l.termDeltas {
		t := &l.termDeltas[i]
		for id, d := range t.counts {
			term := t.terms.Text(int32(id))
			cur := l.terms[term]
			cur.imps += d.imps
			cur.clicks += d.clicks
			l.terms[term] = cur
		}
		t.terms.Reset()
		t.counts = t.counts[:0]
	}
	if decaying && l.global.Prune(pruneMass) > 0 {
		// Pruning renumbers global pair IDs, so the cached delta→global
		// maps are stale; fresh shard deltas also drop the pair vocab
		// the shards accumulated for traffic that no longer exists.
		for i := range l.deltas {
			l.deltas[i] = clickmodel.NewStats()
			l.idmaps[i] = nil
		}
	}
	l.pairs.Store(int64(l.global.NumPairs()))
	l.microTerms.Store(int64(len(l.terms)))
	l.weight.Store(math.Float64bits(l.global.Weight()))
}

// windowLocked gathers the EM mini-batch window into a reused scratch
// slice. Caller holds l.mu.
func (l *Learner) windowLocked() []clickmodel.Session {
	l.winScratch = l.winScratch[:0]
	for i := range l.rings {
		l.winScratch = append(l.winScratch, l.rings[i].buf[:l.rings[i].n]...)
	}
	return l.winScratch
}

// Publish drains, merges and refits every configured model, installing
// each as a fresh engine version with source "online". Models that
// cannot fit yet (no feedback of their kind) are skipped with an error
// that is joined into the return value; models that do fit are still
// published. Safe to call concurrently with Ingest and with the
// background loop.
func (l *Learner) Publish() ([]engine.ModelInfo, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.publishLocked()
}

func (l *Learner) publishLocked() ([]engine.ModelInfo, error) {
	start := time.Now()
	l.foldLocked()
	l.mergeLocked()
	l.lastFolded = l.foldedSessions.Load() + l.foldedSnippets.Load()

	var window []clickmodel.Session
	var compiled *clickmodel.CompiledLog
	var compileErr error
	if len(l.windowed) > 0 {
		window = l.windowLocked()
		if len(window) > 0 {
			// Every session was validated at ingest, so the one error
			// left is the log's size cap: each windowed model reports it.
			compiled, compileErr = clickmodel.Compile(window)
		}
	}

	infos := make([]engine.ModelInfo, 0, len(l.cfg.Models))
	var errs []error
	for _, name := range l.cfg.Models {
		var info engine.ModelInfo
		err := compileErr
		if err == nil || !l.windowed[name] {
			info, err = l.fitOneLocked(name, compiled)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		infos = append(infos, info)
	}

	took := time.Since(start)
	l.lastPublish.Store(int64(took))
	l.publishH.Record(uint64(took))
	l.lastInfos = infos
	if len(infos) > 0 {
		l.publishes.Add(1)
	}
	if len(errs) > 0 {
		l.publishErrors.Add(1)
	}
	if l.cfg.Logger != nil {
		for _, info := range infos {
			l.cfg.Logger.Printf("stream: published %s (%d params, %.0f sessions of weight, window %d)",
				info.Ref(), info.Params, l.global.Weight(), len(window))
		}
		for _, err := range errs {
			l.cfg.Logger.Printf("stream: publish error: %v", err)
		}
	}
	return infos, errors.Join(errs...)
}

// fitOneLocked refits one configured model from the accumulated state
// and installs it: a counting model from the global statistics, any
// other from the compiled window. A fresh model instance is fitted per
// publish so the versions already serving (including pinned
// name@version readers) are never mutated.
func (l *Learner) fitOneLocked(name string, compiled *clickmodel.CompiledLog) (engine.ModelInfo, error) {
	if name == engine.NameMicro {
		return l.fitMicroLocked()
	}
	m, err := clickmodel.Train(name, l.cfg.Iterations, compiled, l.global)
	if err != nil {
		return engine.ModelInfo{}, err
	}
	return l.eng.Install(m.Name(), engine.NewClickModelScorer(m), engine.SourceOnline)
}

// fitMicroLocked rebuilds the micro model's relevance table from the
// accumulated term counts: each term's relevance is its Laplace-
// smoothed click rate (clicks+1)/(imps+2) — the sigmoid of the
// smoothed log-odds, the same CTR-as-relevance estimator
// engine.MicroFromStats applies to the offline statistics database.
func (l *Learner) fitMicroLocked() (engine.ModelInfo, error) {
	if len(l.terms) == 0 {
		return engine.ModelInfo{}, errors.New("no snippet feedback accumulated yet")
	}
	m := core.NewModel(l.cfg.Attention)
	for term, tc := range l.terms {
		if tc.imps <= 0 {
			continue
		}
		m.Relevance[term] = (tc.clicks + 1) / (tc.imps + 2)
	}
	return l.eng.Install(engine.NameMicro, engine.NewMicroScorer(m), engine.SourceOnline)
}

// Start launches the background loop: a fold whenever a shard fills to
// its mark, a backstop fold on a timer, and a publish per Interval,
// gated by MinEvents. A learner whose WAL replay credited at least
// MinEvents events publishes once first, before Start returns: a
// restarted server holds all of its evidence in memory and must not
// answer without a model, or with a stale one, until an interval tick
// that may be 30 s away. Idempotent.
func (l *Learner) Start() {
	if !l.started.CompareAndSwap(false, true) {
		return
	}
	if l.replayed >= uint64(l.cfg.MinEvents) {
		l.Publish() // logs its own errors; counters record them
	}
	go l.run()
}

// run folds on three triggers and publishes on one. The sink's token
// says a shard has reached its fill mark: under load this is what
// drains the queue, so a fold is a few thousand events per shard at any
// feedback rate and the queue holds what arrives in one fold's time, not
// in one tick's. The Interval/8 ticker is the backstop for trickle
// traffic that never fills a shard. The publish tick folds so that
// buffered events count toward its gate. All three run foldLocked on
// this goroutine.
func (l *Learner) run() {
	defer close(l.done)
	foldEvery := l.cfg.Interval / 8
	if foldEvery < 20*time.Millisecond {
		foldEvery = 20 * time.Millisecond
	}
	if foldEvery > time.Second {
		foldEvery = time.Second
	}
	foldT := time.NewTicker(foldEvery)
	pubT := time.NewTicker(l.cfg.Interval)
	defer foldT.Stop()
	defer pubT.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-l.sink.filled:
			l.mu.Lock()
			l.foldLocked()
			l.mu.Unlock()
		case <-foldT.C:
			l.mu.Lock()
			l.foldLocked()
			l.mu.Unlock()
		case <-pubT.C:
			l.mu.Lock()
			l.foldLocked() // count buffered events toward the gate
			fresh := l.foldedSessions.Load()+l.foldedSnippets.Load() >= l.lastFolded+uint64(l.cfg.MinEvents)
			if fresh {
				l.publishLocked() // logs its own errors; counters record them
			} else {
				l.publishSkips.Add(1)
			}
			l.mu.Unlock()
		}
	}
}

// Close stops the background loop (if running) and waits for it to
// exit. It does not publish; call Publish first for a final flush.
func (l *Learner) Close() error {
	l.stopOnce.Do(func() { close(l.stop) })
	if l.started.Load() {
		<-l.done
	}
	return nil
}

// LastPublished returns the versions installed by the most recent
// publish.
func (l *Learner) LastPublished() []engine.ModelInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]engine.ModelInfo, len(l.lastInfos))
	copy(out, l.lastInfos)
	return out
}

// Metrics declares the loop's health: ingest outcomes, what was folded
// and replayed, publisher ticks, the accumulated state, and the stage
// histograms. No reading takes a lock or waits for a fold or a publish
// in flight: the values that live under l.mu are read from their atomic
// copies, each as of the last fold, merge or publish that finished.
func (l *Learner) Metrics() obs.List {
	counter := func(key, help string, v func() uint64) obs.Metric {
		return obs.Metric{Name: "microserve_stream_" + key + "_total", Help: help, Kind: obs.KindCounter,
			Block: "stream", Key: key, Value: func() float64 { return float64(v()) }}
	}
	gauge := func(key, help string, v func() int64) obs.Metric {
		return obs.Metric{Name: "microserve_stream_" + key, Help: help, Kind: obs.KindGauge,
			Block: "stream", Key: key, Value: func() float64 { return float64(v()) }}
	}
	stage := func(name string, h *obs.Histogram) obs.Metric {
		return obs.Metric{Name: "microserve_stream_stage_duration_seconds",
			Help: "Online-loop stage durations: sink residence (offer to fold), fold, publish.",
			Kind: obs.KindHistogram, Labels: `stage="` + name + `"`, Scale: 1e-9, Hist: h}
	}
	return obs.List{
		counter("accepted", "Feedback events queued into the sink.", l.sink.Queued),
		counter("dropped", "Feedback events dropped on sink saturation.", l.sink.Dropped),
		counter("invalid", "Feedback events rejected as malformed.", l.invalid.Load),
		// Folded counts are at most accepted + replayed; the rest is still
		// in the sink. Replayed events count as folded too.
		counter("folded_sessions", "Sessions folded into the statistics.", l.foldedSessions.Load),
		counter("folded_snippets", "Snippet events folded into the term counts.", l.foldedSnippets.Load),
		counter("replayed", "Events recovered from the WAL at boot.", func() uint64 { return l.replayed }),
		counter("publishes", "Publisher ticks that installed versions.", l.publishes.Load),
		counter("publish_skips", "Publisher ticks gated by MinEvents.", l.publishSkips.Load),
		counter("publish_errors", "Publisher ticks with fit/install failures.", l.publishErrors.Load),
		{Name: "microserve_stream_last_publish_seconds", Help: "Wall time of the last publish.", Kind: obs.KindGauge,
			Block: "stream", Key: "last_publish_ms", Scale: 1e-3,
			Value: func() float64 { return float64(l.lastPublish.Load()) / float64(time.Millisecond) }},
		gauge("window_sessions", "EM mini-batch window fill.", l.window.Load),
		gauge("pairs", "Distinct (query, doc) pairs accumulated.", l.pairs.Load),
		gauge("micro_terms", "Micro vocabulary size.", l.microTerms.Load),
		{Name: "microserve_stream_weight", Help: "Decayed session mass.", Kind: obs.KindGauge,
			Block: "stream", Key: "weight", Value: func() float64 { return math.Float64frombits(l.weight.Load()) }},
		// How long each event sat in the sink between Ingest and the fold
		// that absorbed it (the freshness of online learning), each
		// foldLocked and each publishLocked.
		stage("fold_lag", &l.foldLagH),
		stage("fold", &l.foldH),
		stage("publish", &l.publishH),
	}
}
