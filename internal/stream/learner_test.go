package stream

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clickmodel"
	"repro/internal/engine"
	"repro/internal/wal"
)

// fitOn fits m on a session log: Compile, then FitLog.
func fitOn(t testing.TB, m clickmodel.Model, sessions []clickmodel.Session) {
	t.Helper()
	c, err := clickmodel.Compile(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FitLog(c); err != nil {
		t.Fatal(err)
	}
}

// genSessions simulates a PBM-style ground truth: per-doc
// attractiveness times a per-position examination curve. Enough
// structure that a click model fitted on more traffic is measurably
// better on held-out data.
func genSessions(n int, seed int64) []clickmodel.Session {
	rng := rand.New(rand.NewSource(seed))
	docs := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	alpha := []float64{0.65, 0.55, 0.45, 0.4, 0.3, 0.25, 0.15, 0.1}
	gamma := []float64{0.9, 0.6, 0.4, 0.2}
	out := make([]clickmodel.Session, 0, n)
	for k := 0; k < n; k++ {
		s := clickmodel.Session{Query: "q", Docs: make([]string, 4), Clicks: make([]bool, 4)}
		for i := range s.Docs {
			d := rng.Intn(len(docs))
			s.Docs[i] = docs[d]
			s.Clicks[i] = rng.Float64() < alpha[d]*gamma[i]
		}
		out = append(out, s)
	}
	return out
}

func mustLearner(t *testing.T, cfg Config) *Learner {
	t.Helper()
	eng := engine.New()
	l, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewValidation(t *testing.T) {
	eng := engine.New()
	if _, err := New(nil, Config{Models: []string{"pbm"}}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := New(eng, Config{}); err == nil {
		t.Fatal("empty model list accepted")
	}
	if _, err := New(eng, Config{Models: []string{"bogus"}}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := New(eng, Config{Models: []string{"pbm", "micro"}}); err != nil {
		t.Fatal(err)
	}
}

// perplexity scores a session slice through the engine at a pinned
// model reference and folds the per-position marginals into overall
// click perplexity — evaluation through the serving surface itself.
func perplexity(t *testing.T, eng *engine.Engine, ref string, sessions []clickmodel.Session) float64 {
	t.Helper()
	reqs := make([]engine.Request, len(sessions))
	for i := range sessions {
		reqs[i] = engine.Request{Model: ref, Session: &sessions[i]}
	}
	resps := eng.ScoreBatch(context.Background(), reqs)
	var sum, cnt float64
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("scoring %s: %v", ref, r.Err)
		}
		for j, c := range sessions[i].Clicks {
			q := math.Min(math.Max(r.Positions[j], 1e-9), 1-1e-9)
			if c {
				sum += math.Log2(q)
			} else {
				sum += math.Log2(1 - q)
			}
			cnt++
		}
	}
	return math.Exp2(-sum / cnt)
}

// TestOnlineLoopImprovesPerplexity is the end-to-end acceptance test:
// seed the engine with a model fitted on a sliver of traffic, stream
// the rest through the learner, publish, and require the auto-
// published version to beat the seed on held-out perplexity.
func TestOnlineLoopImprovesPerplexity(t *testing.T) {
	all := genSessions(9000, 17)
	seedLog, live, held := all[:120], all[120:8000], all[8000:]

	eng := engine.New()
	seed := clickmodel.NewSDBN()
	fitOn(t, seed, seedLog)
	if info, err := eng.Install(seed.Name(), engine.NewClickModelScorer(seed), "fit"); err != nil || info.Version != 1 {
		t.Fatalf("seed install: %+v, %v", info, err)
	}

	l, err := New(eng, Config{Models: []string{"sdbn"}, Shards: 4, QueueCap: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	for i := range live {
		if err := l.Ingest(Event{Session: &live[i]}); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := l.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "sdbn" || infos[0].Version != 2 || infos[0].Source != engine.SourceOnline {
		t.Fatalf("published %+v", infos)
	}

	before := perplexity(t, eng, "sdbn@1", held)
	after := perplexity(t, eng, "sdbn@2", held)
	if !(after < before) {
		t.Fatalf("online refit did not improve held-out perplexity: %.4f -> %.4f", before, after)
	}

	// The counting path must agree exactly with a batch fit on the
	// same sessions — the parity contract end to end.
	batch := clickmodel.NewSDBN()
	fitOn(t, batch, live)
	wantPerp := perplexityOf(t, batch, held)
	if math.Abs(after-wantPerp) > 1e-9 {
		t.Fatalf("online perplexity %.6f != batch-fit perplexity %.6f", after, wantPerp)
	}

	// Rollback still works over online-published versions.
	info, err := eng.Rollback("sdbn")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 {
		t.Fatalf("rollback landed on %d", info.Version)
	}

	c := l.Metrics().Read()
	if c["stream.accepted"] != float64(len(live)) || c["stream.folded_sessions"] != float64(len(live)) || c["stream.publishes"] != 1 || c["stream.pairs"] == 0 {
		t.Fatalf("counters: %+v", c)
	}
}

func perplexityOf(t *testing.T, m clickmodel.Model, held []clickmodel.Session) float64 {
	t.Helper()
	return clickmodel.Evaluate(m, held).Perplexity
}

// TestPublishEMWindow: EM-family models refit from the windowed
// mini-batch and publish like any other version.
func TestPublishEMWindow(t *testing.T) {
	live := genSessions(3000, 23)
	eng := engine.New()
	l, err := New(eng, Config{Models: []string{"pbm"}, Shards: 2, QueueCap: 1 << 12, Window: 2000, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range live {
		if err := l.Ingest(Event{Session: &live[i]}); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := l.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "pbm" || infos[0].Source != engine.SourceOnline {
		t.Fatalf("published %+v", infos)
	}
	c := l.Metrics().Read()
	if c["stream.window_sessions"] != 2000 {
		t.Fatalf("window filled to %v, want the configured 2000", c["stream.window_sessions"])
	}
	// The published model answers requests.
	resp, err := eng.ScoreCTR(context.Background(), engine.Request{Model: "pbm", Session: &live[0]})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CTR <= 0 || resp.ModelVersion != 1 {
		t.Fatalf("scored %+v", resp)
	}
}

// TestPublishMicro: snippet feedback becomes a served micro model
// whose relevance ranks high-CTR snippets above low-CTR ones.
func TestPublishMicro(t *testing.T) {
	eng := engine.New()
	l, err := New(eng, Config{Models: []string{"micro"}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := SnippetEvent{Lines: []string{"cheap flights deals"}, Impressions: 200, Clicks: 90}
	bad := SnippetEvent{Lines: []string{"expensive layover fees"}, Impressions: 200, Clicks: 4}
	if err := l.Ingest(Event{Snippet: &good}); err != nil {
		t.Fatal(err)
	}
	if err := l.Ingest(Event{Snippet: &bad}); err != nil {
		t.Fatal(err)
	}
	infos, err := l.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != engine.NameMicro || infos[0].Source != engine.SourceOnline {
		t.Fatalf("published %+v", infos)
	}
	ctx := context.Background()
	hi, err := eng.ScoreCTR(ctx, engine.Request{Model: "micro", Lines: good.Lines})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := eng.ScoreCTR(ctx, engine.Request{Model: "micro", Lines: bad.Lines})
	if err != nil {
		t.Fatal(err)
	}
	if !(hi.CTR > lo.CTR) {
		t.Fatalf("learned relevance did not separate snippets: %.4f vs %.4f", hi.CTR, lo.CTR)
	}
	if c := l.Metrics().Read(); c["stream.folded_snippets"] != 2 || c["stream.micro_terms"] == 0 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestPublishPartialFailure: a model with no evidence of its kind yet
// reports an error without blocking the models that can fit.
func TestPublishPartialFailure(t *testing.T) {
	eng := engine.New()
	l, err := New(eng, Config{Models: []string{"sdbn", "micro"}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := genSessions(50, 3)
	for i := range s {
		if err := l.Ingest(Event{Session: &s[i]}); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := l.Publish() // no snippet feedback: micro must fail, sdbn must land
	if err == nil {
		t.Fatal("publish with an unfittable model returned no error")
	}
	if len(infos) != 1 || infos[0].Name != "sdbn" {
		t.Fatalf("published %+v", infos)
	}
	if c := l.Metrics().Read(); c["stream.publish_errors"] != 1 || c["stream.publishes"] != 1 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestDecayAgesOutTraffic: with decay, old traffic loses weight and
// the fitted parameters track recent behaviour.
func TestDecayAgesOutTraffic(t *testing.T) {
	eng := engine.New()
	l, err := New(eng, Config{Models: []string{"sdbn"}, Shards: 1, QueueCap: 1 << 12, Decay: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	clicky := clickmodel.Session{Query: "q", Docs: []string{"a", "b"}, Clicks: []bool{true, false}}
	for i := 0; i < 100; i++ {
		if err := l.Ingest(Event{Session: &clicky}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Publish(); err != nil {
		t.Fatal(err)
	}
	w1 := l.Metrics().Read()["stream.weight"]
	skippy := clickmodel.Session{Query: "q", Docs: []string{"a", "b"}, Clicks: []bool{false, false}}
	for round := 0; round < 4; round++ {
		for i := 0; i < 100; i++ {
			if err := l.Ingest(Event{Session: &skippy}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	if w2 := l.Metrics().Read()["stream.weight"]; w2 >= w1+400 {
		t.Fatalf("decay did not age traffic out: weight %v -> %v", w1, w2)
	}
	// Recent all-skip traffic should have pulled a's attractiveness
	// well below the all-click seed round.
	resp, err := eng.ScoreCTR(context.Background(), engine.Request{Model: "sdbn", Session: &clicky})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Positions[0] > 0.2 {
		t.Fatalf("attractiveness stuck at %v despite decayed skips", resp.Positions[0])
	}
}

// TestBackgroundLoopGates: with MinEvents unreachable the ticker
// skips instead of publishing.
func TestBackgroundLoopGates(t *testing.T) {
	eng := engine.New()
	l, err := New(eng, Config{Models: []string{"sdbn"}, Shards: 1, Interval: 25 * time.Millisecond, MinEvents: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	l.Start()
	l.Start() // idempotent
	s := genSessions(5, 9)
	for i := range s {
		if err := l.Ingest(Event{Session: &s[i]}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(2 * time.Second)
	for l.Metrics().Read()["stream.publish_skips"] == 0 {
		select {
		case <-deadline:
			t.Fatal("background loop never ticked")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if c := l.Metrics().Read(); c["stream.publishes"] != 0 {
		t.Fatalf("gated loop still published: %+v", c)
	}
	// Close is idempotent and safe after the loop exited.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundLoopPublishes: the full background path — Start,
// ingest, wait for the ticker to auto-publish, score the result.
func TestBackgroundLoopPublishes(t *testing.T) {
	live := genSessions(2000, 29)
	eng := engine.New()
	l, err := New(eng, Config{Models: []string{"sdbn"}, Shards: 2, QueueCap: 1 << 12, Interval: 30 * time.Millisecond, MinEvents: 100})
	if err != nil {
		t.Fatal(err)
	}
	l.Start()
	defer l.Close()
	for i := range live {
		if err := l.Ingest(Event{Session: &live[i]}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for l.Metrics().Read()["stream.publishes"] == 0 {
		select {
		case <-deadline:
			t.Fatalf("loop never auto-published: %+v", l.Metrics().Read())
		case <-time.After(10 * time.Millisecond):
		}
	}
	resp, err := eng.ScoreCTR(context.Background(), engine.Request{Model: "sdbn", Session: &live[0]})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ModelVersion < 1 {
		t.Fatalf("scored %+v", resp)
	}
	if got := l.LastPublished(); len(got) == 0 || got[0].Name != "sdbn" {
		t.Fatalf("LastPublished = %+v", got)
	}
}

// TestConcurrentIngestPublishScore is the -race acceptance test:
// concurrent producers, a running background publisher, manual
// publishes and batch scoring all at once — with a roomy queue, and
// with one small enough (a shard asks for a fold every 32 events) that
// fill-triggered folds race the ticker's folds and Publish throughout.
func TestConcurrentIngestPublishScore(t *testing.T) {
	for _, queueCap := range []int{1 << 12, 64} {
		t.Run(fmt.Sprintf("queue=%d", queueCap), func(t *testing.T) { concurrentIngestPublishScore(t, queueCap) })
	}
}

func concurrentIngestPublishScore(t *testing.T, queueCap int) {
	live := genSessions(4000, 31)
	eng := engine.New(engine.WithKeepVersions(4))
	seed := clickmodel.NewSDBN()
	fitOn(t, seed, live[:100])
	if _, err := eng.Install(seed.Name(), engine.NewClickModelScorer(seed), "fit"); err != nil {
		t.Fatal(err)
	}

	l, err := New(eng, Config{Models: []string{"sdbn", "dcm"}, Shards: 4, QueueCap: queueCap, Interval: 15 * time.Millisecond, MinEvents: 50})
	if err != nil {
		t.Fatal(err)
	}
	l.Start()

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(live); i += 4 {
				l.Ingest(Event{Session: &live[i]}) // drops under pressure are fine
			}
		}(p)
	}
	stopScore := make(chan struct{})
	var scoreWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		scoreWG.Add(1)
		go func() {
			defer scoreWG.Done()
			reqs := make([]engine.Request, 64)
			for i := range reqs {
				reqs[i] = engine.Request{Model: "sdbn", Session: &live[i]}
			}
			for {
				select {
				case <-stopScore:
					return
				default:
				}
				for _, r := range eng.ScoreBatch(context.Background(), reqs) {
					if r.Err != nil {
						t.Error(r.Err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		l.Publish()
	}
	wg.Wait()
	if _, err := l.Publish(); err != nil {
		t.Fatal(err)
	}
	close(stopScore)
	scoreWG.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	c := l.Metrics().Read()
	if c["stream.publishes"] == 0 || c["stream.folded_sessions"] == 0 {
		t.Fatalf("counters: %+v", c)
	}
	if c["stream.accepted"]+c["stream.dropped"] != float64(len(live)) {
		t.Fatalf("accounting: accepted %v + dropped %v != %v", c["stream.accepted"], c["stream.dropped"], len(live))
	}
}

// TestDecayPrunesPairs: with decay on, pairs whose traffic stopped are
// dropped from the global table instead of leaking forever — and the
// version published before they went, fitted on a table of its own,
// answers by bits as it did.
func TestDecayPrunesPairs(t *testing.T) {
	eng := engine.New()
	l, err := New(eng, Config{Models: []string{"sdbn"}, Shards: 2, QueueCap: 1 << 12, Decay: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// One burst of unique one-off pairs, then steady repeat traffic.
	for i := 0; i < 200; i++ {
		s := clickmodel.Session{Query: "q", Docs: []string{fmt.Sprintf("one-off-%d", i)}, Clicks: []bool{false}}
		if err := l.Ingest(Event{Session: &s}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Publish(); err != nil {
		t.Fatal(err)
	}
	peak := l.Metrics().Read()["stream.pairs"]
	oneOff := clickmodel.Session{Query: "q", Docs: []string{"one-off-7", "one-off-8", "evergreen"}, Clicks: make([]bool, 3)}
	first, err := eng.ScoreCTR(context.Background(), engine.Request{Model: "sdbn@1", Session: &oneOff})
	if err != nil {
		t.Fatal(err)
	}
	steady := clickmodel.Session{Query: "q", Docs: []string{"evergreen"}, Clicks: []bool{true}}
	for round := 0; round < 4; round++ {
		for i := 0; i < 50; i++ {
			if err := l.Ingest(Event{Session: &steady}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Metrics().Read()["stream.pairs"]; got >= peak {
		t.Fatalf("pair table never shrank: %v -> %v", peak, got)
	}
	// The evergreen pair still serves.
	resp, err := eng.ScoreCTR(context.Background(), engine.Request{Model: "sdbn", Session: &steady})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Positions[0] <= 0.5 {
		t.Fatalf("evergreen pair lost its clicks: %+v", resp)
	}
	again, err := eng.ScoreCTR(context.Background(), engine.Request{Model: "sdbn@1", Session: &oneOff})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range first.Positions {
		if math.Float64bits(again.Positions[i]) != math.Float64bits(p) {
			t.Fatalf("sdbn@1 answered %v before the prunes and %v after", first.Positions, again.Positions)
		}
	}
}

// parkedAttention is the attention layer the learner stamps onto the
// micro models it publishes. fitMicroLocked compiles its attention
// table through Examine with l.mu held, so while a gate is armed the
// next Examine parks there until the test releases it: a publish that
// holds l.mu for as long as the test likes, the way an EM refit on a
// full window holds it for real.
type parkedAttention struct{}

type parkGate struct{ entered, release chan struct{} }

var parkedGate atomic.Pointer[parkGate] // the gate the next Examine parks at; nil: none

func (parkedAttention) Examine(line, pos int) float64 {
	if g := parkedGate.Swap(nil); g != nil {
		close(g.entered)
		<-g.release
	}
	return 1
}

// countersUnderLock is what the learner's list must report of the state l.mu
// guards, read from that state itself with the lock held.
func countersUnderLock(l *Learner) (window, pairs, terms int, weight float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.rings {
		window += l.rings[i].n
	}
	return window, l.global.NumPairs(), len(l.terms), l.global.Weight()
}

// TestCountersDoNotWaitForPublish: /healthz and /metrics read the
// learner's list, and a liveness probe must not queue behind a model fit.
// With a publish parked inside a fit — l.mu held — the list reads at once, with what
// the fold and the merge of that publish already made true; once the
// publish is through it reports what a read under the lock finds.
func TestCountersDoNotWaitForPublish(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// pbm keeps a window; micro, fitted last, parks the publish.
	cfg := Config{Models: []string{"sdbn", "pbm", engine.NameMicro}, Shards: 2, Decay: 0.9, WAL: w, Attention: parkedAttention{}}
	l := mustLearner(t, cfg)
	sessions := genSessions(400, 11)
	for i := range sessions {
		if err := l.Ingest(Event{Session: &sessions[i]}); err != nil {
			t.Fatal(err)
		}
	}
	snip := SnippetEvent{Lines: []string{"Acme Air", "Find cheap flights"}, Impressions: 40, Clicks: 7}
	if err := l.Ingest(Event{Snippet: &snip}); err != nil {
		t.Fatal(err)
	}

	gate := &parkGate{entered: make(chan struct{}), release: make(chan struct{})}
	parkedGate.Store(gate)
	published := make(chan error, 1)
	go func() {
		_, err := l.Publish()
		published <- err
	}()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the publish never reached the parked fit")
	}
	got := make(chan map[string]float64, 1)
	go func() { got <- l.Metrics().Read() }()
	select {
	case c := <-got:
		if c["stream.folded_sessions"] != 400 || c["stream.window_sessions"] != 400 || c["stream.pairs"] == 0 ||
			c["stream.micro_terms"] == 0 || c["stream.weight"] != 400 || c["stream.publishes"] != 0 {
			t.Errorf("during the publish, after its fold and merge: %+v", c)
		}
	case <-time.After(100 * time.Millisecond):
		t.Error("reading the learner's list waited for a publish that is inside a model fit")
	}
	close(gate.release)
	if err := <-published; err != nil {
		t.Fatal(err)
	}

	check := func(when string, l *Learner, publishes uint64) {
		t.Helper()
		c := l.Metrics().Read()
		window, pairs, terms, weight := countersUnderLock(l)
		if c["stream.window_sessions"] != float64(window) || c["stream.pairs"] != float64(pairs) || c["stream.micro_terms"] != float64(terms) || c["stream.weight"] != weight {
			t.Errorf("%s: the list reads window %v, %v pairs, %v terms, weight %v; under the lock %d, %d, %d, %v",
				when, c["stream.window_sessions"], c["stream.pairs"], c["stream.micro_terms"], c["stream.weight"], window, pairs, terms, weight)
		}
		if c["stream.publishes"] != float64(publishes) || c["stream.publish_errors"] != 0 || c["stream.publish_skips"] != 0 || (c["stream.last_publish_ms"] > 0) != (publishes > 0) {
			t.Errorf("%s: %v publishes, %v errors, %v skips, last took %v ms; want %d clean ones",
				when, c["stream.publishes"], c["stream.publish_errors"], c["stream.publish_skips"], c["stream.last_publish_ms"], publishes)
		}
	}
	check("after the publish", l, 1)
	if _, err := l.Publish(); err != nil { // decays: the weight is no longer a session count
		t.Fatal(err)
	}
	check("after a second publish", l, 2)
	l.Close()

	// A restart replays the log into the window before New returns.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if cfg.WAL, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer cfg.WAL.Close()
	l2 := mustLearner(t, cfg)
	defer l2.Close()
	if c := l2.Metrics().Read(); c["stream.window_sessions"] != 400 {
		t.Errorf("after replay Metrics reports a window of %v sessions, want 400", c["stream.window_sessions"])
	}
	check("after replay", l2, 0)
}
