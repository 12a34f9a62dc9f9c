package stream

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/textproc"
)

// foldSnippetTermSet is foldSnippet as it was before it tokenised into
// a scratch: a set of freshly built n-gram strings per event. It stays
// as the oracle — the statement of "every distinct term of the snippet
// is credited once".
func foldSnippetTermSet(m map[string]termCount, ev *SnippetEvent, maxN int) {
	set := map[string]bool{}
	for _, t := range textproc.ExtractTerms(ev.Lines, maxN) {
		set[t.Text] = true
	}
	for term := range set {
		tc := m[term]
		tc.imps += float64(ev.Impressions)
		tc.clicks += float64(ev.Clicks)
		m[term] = tc
	}
}

// randomSnippet draws lines over a small vocabulary, so words repeat
// within a line, across lines and across events, with the inputs the
// tokeniser treats specially mixed in.
func randomSnippet(rng *rand.Rand) SnippetEvent {
	words := []string{"cheap", "Cheap", "flights", "flights,", "to", "Rome", "rome!", "don't", "20%", "$99", "off", "Ünïted", "ÉCOLE", "straße", "世界", "--", "…", "a", "a", "the"}
	ev := SnippetEvent{Impressions: 1 + rng.Intn(500)}
	ev.Clicks = rng.Intn(ev.Impressions + 1)
	for l := rng.Intn(4) + 1; l > 0; l-- {
		switch rng.Intn(8) {
		case 0:
			ev.Lines = append(ev.Lines, "?! -- ...")
		case 1:
			ev.Lines = append(ev.Lines, "")
		default:
			line := make([]string, rng.Intn(7)+1)
			for i := range line {
				line[i] = words[rng.Intn(len(words))]
			}
			ev.Lines = append(ev.Lines, strings.Join(line, " "))
		}
	}
	return ev
}

func sameCounts(t *testing.T, what string, got, want map[string]termCount) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d terms, the oracle has %d", what, len(got), len(want))
	}
	for term, w := range want {
		g, ok := got[term]
		if !ok || math.Float64bits(g.imps) != math.Float64bits(w.imps) || math.Float64bits(g.clicks) != math.Float64bits(w.clicks) {
			t.Fatalf("%s: term %q has %+v (present: %v), the oracle has %+v", what, term, g, ok, w)
		}
	}
}

// TestFoldSnippetMatchesTermSet: the scratch-based fold and the
// set-per-event oracle build identical term → (imps, clicks) tables, by
// bits, for every n-gram order (with GramOrder's [1,3] clamp), across
// merges — which empty the shard's table — and across the wrap-around of
// the event numbering, where a count stamped by event k long ago meets a
// new event k.
func TestFoldSnippetMatchesTermSet(t *testing.T) {
	for maxN := 1; maxN <= 4; maxN++ {
		l := mustLearner(t, Config{Models: []string{engine.NameMicro}, Shards: 1, MicroMaxN: maxN, Decay: 0.9})
		rng := rand.New(rand.NewSource(int64(maxN)))
		shard := &l.termDeltas[0]
		delta, global := map[string]termCount{}, map[string]termCount{}
		fold := func(n int) {
			for ; n > 0; n-- {
				ev := randomSnippet(rng)
				l.foldSnippet(0, &ev)
				foldSnippetTermSet(delta, &ev, maxN)
			}
			got := make(map[string]termCount, shard.terms.Len())
			for id, term := range shard.terms.Texts() {
				got[term] = shard.counts[id].termCount
			}
			sameCounts(t, "shard delta", got, delta)
		}
		merge := func() {
			l.mergeLocked()
			for term, tc := range global {
				if tc.imps *= 0.9; tc.imps < pruneMass {
					delete(global, term)
					continue
				}
				tc.clicks *= 0.9
				global[term] = tc
			}
			for term, tc := range delta {
				cur := global[term]
				cur.imps += tc.imps
				cur.clicks += tc.clicks
				global[term] = cur
			}
			clear(delta)
			if shard.terms.Len()+len(shard.counts) != 0 {
				t.Fatalf("a merge left %d terms and %d counts in the shard", shard.terms.Len(), len(shard.counts))
			}
			sameCounts(t, "merged table", l.terms, global)
		}

		fold(40) // events 1..40
		shard.event = math.MaxUint32 - 2
		fold(40) // MaxUint32-1, MaxUint32, then 1..38 again: old stamps are met a second time
		if shard.event != 38 {
			t.Fatalf("event numbering reads %d after the wrap, want 38", shard.event)
		}
		merge()
		fold(30)
		merge()
		merge()
		if len(l.terms) < 10 {
			t.Fatalf("maxN=%d: only %d terms; the test wants a real table", maxN, len(l.terms))
		}
	}
}

// TestFoldSnippetNoalloc backs the //mb:noalloc annotation on
// foldSnippet: on a warm shard, crediting terms it has sighted since the
// last merge is a tokenise into the scratch, a map read per n-gram and
// two adds.
func TestFoldSnippetNoalloc(t *testing.T) {
	l := mustLearner(t, Config{Models: []string{engine.NameMicro}, Shards: 1, MicroMaxN: 3})
	rng := rand.New(rand.NewSource(9))
	events := make([]SnippetEvent, 64)
	for i := range events {
		events[i] = randomSnippet(rng)
		l.foldSnippet(0, &events[i])
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		l.foldSnippet(0, &events[i%len(events)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("foldSnippet of known terms allocates %v/event, want 0", allocs)
	}
}

// TestWindowOnlyForEMModels: the session window exists for the models
// that refit on it. A learner of counting-family models and micro keeps
// no session past its fold; one with an EM-family model still fills the
// window.
func TestWindowOnlyForEMModels(t *testing.T) {
	sessions := genSessions(300, 5)
	for _, tc := range []struct {
		models []string
		window int
	}{
		{[]string{"sdbn", engine.NameMicro}, 0},
		{[]string{"sdbn", "cascade", "dcm"}, 0},
		{[]string{"pbm"}, 300},
		{[]string{"sdbn", "pbm", engine.NameMicro}, 300},
	} {
		l := mustLearner(t, Config{Models: tc.models, Shards: 2})
		for i := range sessions {
			if err := l.Ingest(Event{Session: &sessions[i]}); err != nil {
				t.Fatal(err)
			}
		}
		l.Publish() // folds; micro has nothing to fit from and says so
		if c := l.Metrics().Read(); c["stream.window_sessions"] != float64(tc.window) || c["stream.folded_sessions"] != 300 {
			t.Errorf("%v: window holds %v sessions of %v folded, want %v", tc.models, c["stream.window_sessions"], c["stream.folded_sessions"], tc.window)
		}
	}
}
