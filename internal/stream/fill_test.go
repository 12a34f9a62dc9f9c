package stream

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clickmodel"
	"repro/internal/engine"
	"repro/internal/wal"
)

// TestSinkAllocatesOnDemand: the queue bound is a drop threshold, not a
// reservation. A sink with a 131072-event bound costs its shard headers
// until events arrive; it accepts exactly the bound per shard whatever
// capacity append's doubling left behind; and once both swap buffers
// have grown to the load, offers and drains reuse them.
func TestSinkAllocatesOnDemand(t *testing.T) {
	const shards, queueCap = 2, 1 << 17
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewSink(shards, queueCap)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewSink(%d, %d) allocated %d bytes before any event, want < 64 KB", shards, queueCap, got)
	}

	ev := Event{Session: testSession("q")}
	fill := func() {
		t.Helper()
		for i := 0; i < shards*queueCap; i++ {
			if !s.Offer(ev) {
				t.Fatalf("offer %d rejected below the bound", i)
			}
		}
	}
	drain := func() {
		t.Helper()
		n := 0
		for i := 0; i < shards; i++ {
			n += s.DrainShard(i, func(*Event) {})
		}
		if n != shards*queueCap {
			t.Fatalf("drained %d events, want %d", n, shards*queueCap)
		}
	}
	fill()
	for i := range s.shards {
		if sh := &s.shards[i]; len(sh.buf) != queueCap || cap(sh.buf) < queueCap {
			t.Fatalf("shard %d holds %d events in a buffer of %d, bound %d", i, len(sh.buf), cap(sh.buf), queueCap)
		}
	}
	if s.Offer(ev) {
		t.Fatal("offer accepted past the bound")
	}
	if s.Queued() != shards*queueCap || s.Dropped() != 1 {
		t.Fatalf("queued %d dropped %d, want %d/1", s.Queued(), s.Dropped(), shards*queueCap)
	}

	first := &s.shards[0].buf[0]
	drain() // swaps in the second buffer, still empty
	fill()  // grows it
	drain() // back on the first
	// AllocsPerRun(1, f) calls f twice: two more swaps, the first buffer
	// again. It counts the whole process's allocations over a run of tens
	// of milliseconds, so one stray runtime allocation on a loaded host is
	// measured again: an allocation in the sink repeats on every run.
	allocs := testing.AllocsPerRun(1, func() { fill(); drain() })
	for retry := 0; retry < 2 && allocs != 0; retry++ {
		allocs = testing.AllocsPerRun(1, func() { fill(); drain() })
	}
	if allocs != 0 {
		t.Fatalf("filling and draining warm shards allocated %v times, want 0", allocs)
	}
	if s.Offer(ev); &s.shards[0].buf[0] != first {
		t.Fatal("a warm shard is not appending into the buffer it grew first")
	}

	// The smallest bound: the fill mark is 1, not 0 — the one event a
	// shard may hold asks for its fold.
	one := NewSink(1, 1)
	if !one.Offer(ev) || len(one.filled) != 1 {
		t.Fatalf("QueueCap 1: the first offer left %d fold requests, want 1", len(one.filled))
	}
	if one.Offer(ev) || one.Dropped() != 1 {
		t.Fatal("QueueCap 1: a second event was accepted")
	}
}

// waitFolded polls until the learner has folded want sessions or the
// deadline passes, and reports which.
func waitFolded(l *Learner, want uint64, deadline time.Time) bool {
	for l.Metrics().Read()["stream.folded_sessions"] != float64(want) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestFoldFollowsFill: a shard that reaches its fill mark is folded
// because it did, not because a timer fired. Interval is an hour, so no
// publish tick can help; the backstop fold ticker is clamped to 1 s, so
// each attempt keeps every observation inside the first 900 ms after
// Start, before that ticker's first tick. Within that window: one event
// short of the mark is left alone, the event that reaches it gets the
// shard folded, and a request made while a fold is running is kept — the
// events offered during a fold are folded by the next one.
func TestFoldFollowsFill(t *testing.T) {
	const queueCap, mark = 64, 32
	for attempt := 0; attempt < 5; attempt++ {
		l := mustLearner(t, Config{Models: []string{"sdbn"}, Shards: 1, QueueCap: queueCap, Interval: time.Hour})
		if l.sink.fillAt != mark {
			t.Fatalf("QueueCap %d marks a shard full at %d events, want %d", queueCap, l.sink.fillAt, mark)
		}
		// The second fold parks as it finishes, its shard already drained.
		folds := 0
		inFold, release := make(chan struct{}), make(chan struct{})
		l.strandHook = func() {
			if folds++; folds == 2 {
				close(inFold)
				<-release
			}
		}
		ingest := func(n int) {
			t.Helper()
			for ; n > 0; n-- {
				if err := l.Ingest(Event{Session: testSession("q")}); err != nil {
					t.Fatal(err)
				}
			}
		}
		start := time.Now()
		window := start.Add(900 * time.Millisecond)
		l.Start()

		ingest(mark - 1)
		time.Sleep(100 * time.Millisecond)
		early := l.Metrics().Read()["stream.folded_sessions"]
		ingest(1)
		first := waitFolded(l, mark, window)
		ingest(mark)
		var second, parked bool
		select {
		case <-inFold:
			parked = true
			ingest(mark) // lands in the drained shard while the fold still runs
			close(release)
			second = waitFolded(l, 3*mark, window)
		case <-time.After(time.Until(window)):
			close(release)
		}
		inTime := time.Now().Before(window)
		l.Close()
		if !inTime {
			continue // too slow to tell a fill-triggered fold from the backstop tick
		}
		if early != 0 {
			t.Fatalf("%v of %v events were folded below the fill mark with no ticker due", early, mark-1)
		}
		if !first || !parked || !second {
			t.Fatalf("no ticker was due, and the shard was not folded on fill: first fill folded %v, second fold started %v, the fill made during it folded %v; %+v",
				first, parked, second, l.Metrics().Read())
		}
		return
	}
	t.Skip("five attempts each took over 900 ms: this host cannot separate a fill-triggered fold from the 1 s backstop")
}

// foldOracle is what any fold of these events must add up to, computed
// serially: one Stats, one term table (fold_test.go's set-per-event
// fold).
type foldOracle struct {
	stats    *clickmodel.Stats
	terms    map[string]termCount
	sessions []clickmodel.Session
	snippets []SnippetEvent
}

func newFoldOracle(t *testing.T, maxN int) *foldOracle {
	t.Helper()
	o := &foldOracle{stats: clickmodel.NewStats(), terms: map[string]termCount{}, sessions: genSessions(3000, 41)}
	rng := rand.New(rand.NewSource(43))
	for i := range o.sessions {
		o.sessions[i].Query = []string{"q", "flights", "hotels"}[rng.Intn(3)]
	}
	if err := o.stats.AddAll(o.sessions); err != nil {
		t.Fatal(err)
	}
	o.snippets = make([]SnippetEvent, 400)
	for i := range o.snippets {
		o.snippets[i] = randomSnippet(rng)
		foldSnippetTermSet(o.terms, &o.snippets[i], maxN)
	}
	return o
}

// sameFits holds two Stats together through everything a reader of them
// can see: their sizes, and every counting-family fit, by bits.
func sameFits(t *testing.T, what string, got, want *clickmodel.Stats, probe []clickmodel.Session) {
	t.Helper()
	if got.NumPairs() != want.NumPairs() || got.MaxPositions() != want.MaxPositions() || got.Weight() != want.Weight() || got.Added() != want.Added() {
		t.Fatalf("%s: %d pairs, %d positions, weight %v, %d added; the oracle has %d, %d, %v, %d", what,
			got.NumPairs(), got.MaxPositions(), got.Weight(), got.Added(),
			want.NumPairs(), want.MaxPositions(), want.Weight(), want.Added())
	}
	for _, name := range []string{"sdbn", "cascade", "dcm"} {
		var fits [2]clickmodel.Model
		for i, st := range []*clickmodel.Stats{got, want} {
			m, err := clickmodel.New(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.(clickmodel.StatsFitter).FitStats(st); err != nil {
				t.Fatal(err)
			}
			fits[i] = m
		}
		for _, s := range probe {
			g, w := fits[0].ClickProbsInto(s, nil), fits[1].ClickProbsInto(s, nil)
			for j := range w {
				if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
					t.Fatalf("%s: %s fitted from the fold gives %v, from the oracle %v", what, name, g, w)
				}
			}
		}
	}
}

// TestFoldStrandBound: a fold runs on min(shards holding events,
// max(1, GOMAXPROCS-1)) strands, the caller's included — alone on two
// CPUs, where it starts no goroutine, and one P short of all of them on
// eight — and what it folds does not depend on how many: statistics,
// term counts and the learner's list equal the serial oracle either way.
func TestFoldStrandBound(t *testing.T) {
	const shards = 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	o := newFoldOracle(t, 2)
	for _, tc := range []struct{ procs, strands int }{{2, 1}, {8, 7}, {1, 1}} {
		runtime.GOMAXPROCS(tc.procs)
		l := mustLearner(t, Config{Models: []string{"sdbn", "cascade", "dcm", engine.NameMicro}, Shards: shards, QueueCap: 1 << 12})
		var strands atomic.Int32
		l.strandHook = func() { strands.Add(1) }
		for i := range o.sessions {
			if err := l.Ingest(Event{Session: &o.sessions[i]}); err != nil {
				t.Fatal(err)
			}
		}
		for i := range o.snippets {
			if err := l.Ingest(Event{Snippet: &o.snippets[i]}); err != nil {
				t.Fatal(err)
			}
		}
		l.mu.Lock()
		l.foldLocked()
		l.mu.Unlock()
		if got := int(strands.Load()); got != tc.strands {
			t.Fatalf("GOMAXPROCS %d: %d backlogged shards were folded on %d strands, want %d", tc.procs, shards, got, tc.strands)
		}
		strands.Store(0)
		l.mu.Lock()
		l.foldLocked()
		l.mu.Unlock()
		if got := strands.Load(); got != 1 {
			t.Fatalf("GOMAXPROCS %d: a fold of an empty sink ran %d strands, want the caller's alone", tc.procs, got)
		}
		if _, err := l.Publish(); err != nil {
			t.Fatal(err)
		}
		sameFits(t, "merged statistics", l.global, o.stats, o.sessions[:50])
		sameCounts(t, "merged term table", l.terms, o.terms)
		c := l.Metrics().Read()
		if c["stream.folded_sessions"] != float64(len(o.sessions)) || c["stream.folded_snippets"] != float64(len(o.snippets)) ||
			c["stream.pairs"] != float64(o.stats.NumPairs()) || c["stream.micro_terms"] != float64(len(o.terms)) || c["stream.weight"] != o.stats.Weight() || c["stream.dropped"] != 0 {
			t.Fatalf("GOMAXPROCS %d: counters %+v; the oracle has %d sessions, %d snippets, %d pairs, %d terms, weight %v",
				tc.procs, c, len(o.sessions), len(o.snippets), o.stats.NumPairs(), len(o.terms), o.stats.Weight())
		}
	}
}

// TestReplayPublishesBeforeFirstTick: a restarted learner has folded its
// whole log back by the time New returns, and Start publishes from it at
// once — with an hour between publish ticks the engine resolves the
// online models as soon as Start has returned. An empty log publishes
// nothing.
func TestReplayPublishesBeforeFirstTick(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Models: []string{"sdbn", engine.NameMicro}, Interval: time.Hour, QueueCap: 1 << 12, WAL: w}
	l := mustLearner(t, cfg)
	l.Start()
	sessions := genSessions(500, 47)
	for i := range sessions {
		if err := l.Ingest(Event{Session: &sessions[i]}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 50; i++ {
		snip := randomSnippet(rng)
		if err := l.Ingest(Event{Snippet: &snip}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if got := l.LastPublished(); len(got) != 0 {
		t.Fatalf("a learner with an empty log and an hour to its first tick published %+v", got)
	}
	if err := w.Close(); err != nil { // the crash: nothing was ever published
		t.Fatal(err)
	}

	if cfg.WAL, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer cfg.WAL.Close()
	eng := engine.New()
	l2, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if c := l2.Metrics().Read(); c["stream.replayed"] != 550 {
		t.Fatalf("replayed %v events, want 550", c["stream.replayed"])
	}
	l2.Start()
	deadline := time.Now().Add(time.Second)
	for len(l2.LastPublished()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := l2.LastPublished(); len(got) != 2 {
		t.Fatalf("within 1 s of Start the replayed learner had published %+v, want sdbn and micro", got)
	}
	resp, err := eng.ScoreCTR(context.Background(), engine.Request{Model: "sdbn", Session: &sessions[0]})
	if err != nil || resp.ModelVersion != 1 {
		t.Fatalf("the engine resolves sdbn as %+v, %v", resp, err)
	}
	if c := l2.Metrics().Read(); c["stream.publishes"] != 1 || c["stream.publish_skips"] != 0 {
		t.Fatalf("counters after the replay-time publish: %+v", c)
	}
}
