package clickmodel

import (
	"math"
	"math/rand"
	"testing"
)

// statsTestLog builds a deterministic synthetic log with multi-click
// sessions, no-click sessions and varying lengths.
func statsTestLog(n int, seed int64) []Session {
	rng := rand.New(rand.NewSource(seed))
	docs := []string{"a", "b", "c", "d", "e", "f", "g"}
	queries := []string{"q1", "q2", "q3"}
	out := make([]Session, 0, n)
	for k := 0; k < n; k++ {
		ln := 3 + rng.Intn(3)
		s := Session{Query: queries[rng.Intn(len(queries))], Docs: make([]string, ln), Clicks: make([]bool, ln)}
		for i := range s.Docs {
			s.Docs[i] = docs[rng.Intn(len(docs))]
			s.Clicks[i] = rng.Float64() < 0.35/float64(i+1)
		}
		out = append(out, s)
	}
	return out
}

// fitPair fits one model instance through the batch path and one
// through the incremental path over the same sessions.
func fitPair[M Model](t *testing.T, batch, online M, sessions []Session) {
	t.Helper()
	if err := fitSessions(batch, sessions); err != nil {
		t.Fatal(err)
	}
	st := NewStats()
	if err := st.AddAll(sessions); err != nil {
		t.Fatal(err)
	}
	sf, ok := any(online).(StatsFitter)
	if !ok {
		t.Fatalf("%s does not implement StatsFitter", online.Name())
	}
	if err := sf.FitStats(st); err != nil {
		t.Fatal(err)
	}
}

func mapsEqual(t *testing.T, what string, a, b map[qd]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d entries batch vs %d incremental", what, len(a), len(b))
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok {
			t.Fatalf("%s: %v missing from incremental fit", what, k)
		}
		if math.Abs(v-w) > 1e-12 {
			t.Fatalf("%s[%v] = %v batch vs %v incremental", what, k, v, w)
		}
	}
}

// TestStatsParity is the core guarantee of the online loop: folding a
// log session-by-session into a Stats and fitting from the accumulated
// counts gives bit-identical parameters to the batch compile-and-count
// path, for every counting-family model.
func TestStatsParity(t *testing.T) {
	sessions := statsTestLog(3000, 42)

	t.Run("sdbn", func(t *testing.T) {
		batch, online := NewSDBN(), NewSDBN()
		fitPair(t, batch, online, sessions)
		mapsEqual(t, "attr", tableMap(batch.pairs, batch.attr), tableMap(online.pairs, online.attr))
		mapsEqual(t, "sat", tableMap(batch.pairs, batch.sat), tableMap(online.pairs, online.sat))
	})
	t.Run("cascade", func(t *testing.T) {
		batch, online := NewCascade(), NewCascade()
		fitPair(t, batch, online, sessions)
		mapsEqual(t, "alpha", tableMap(batch.pairs, batch.alphas), tableMap(online.pairs, online.alphas))
	})
	t.Run("dcm", func(t *testing.T) {
		batch, online := NewDCM(), NewDCM()
		fitPair(t, batch, online, sessions)
		mapsEqual(t, "alpha", tableMap(batch.pairs, batch.alphas), tableMap(online.pairs, online.alphas))
		if len(batch.Lambda) != len(online.Lambda) {
			t.Fatalf("lambda lengths %d vs %d", len(batch.Lambda), len(online.Lambda))
		}
		for i := range batch.Lambda {
			if math.Abs(batch.Lambda[i]-online.Lambda[i]) > 1e-12 {
				t.Fatalf("Lambda[%d] = %v vs %v", i, batch.Lambda[i], online.Lambda[i])
			}
		}
	})
}

// TestStatsMergeParity: sharded accumulation (one Stats per shard,
// merged into a global) equals single-accumulator accumulation — the
// shape the stream layer runs.
func TestStatsMergeParity(t *testing.T) {
	sessions := statsTestLog(2000, 7)
	single := NewStats()
	if err := single.AddAll(sessions); err != nil {
		t.Fatal(err)
	}

	const shards = 4
	global := NewStats()
	deltas := make([]*Stats, shards)
	idmaps := make([][]int32, shards)
	for i := range deltas {
		deltas[i] = NewStats()
	}
	for i, s := range sessions {
		if err := deltas[i%shards].Add(s); err != nil {
			t.Fatal(err)
		}
	}
	// Merge in two rounds with a Reset between, exercising the delta
	// lifecycle (counts move, interning persists).
	for round := 0; round < 2; round++ {
		for i, d := range deltas {
			idmaps[i] = global.Merge(d, idmaps[i])
			d.Reset()
		}
		if round == 0 {
			for i, s := range sessions[:200] {
				if err := deltas[i%shards].Add(s); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i, s := range sessions[:200] {
		if err := single.Add(s); err != nil {
			t.Fatal(err)
		}
		_ = i
	}

	a, b := NewSDBN(), NewSDBN()
	if err := a.FitStats(single); err != nil {
		t.Fatal(err)
	}
	if err := b.FitStats(global); err != nil {
		t.Fatal(err)
	}
	mapsEqual(t, "attr", tableMap(a.pairs, a.attr), tableMap(b.pairs, b.attr))
	mapsEqual(t, "sat", tableMap(a.pairs, a.sat), tableMap(b.pairs, b.sat))
	if single.Weight() != global.Weight() {
		t.Fatalf("weights %v vs %v", single.Weight(), global.Weight())
	}
}

// TestStatsDecay: decayed counts halve the session mass and pull
// estimates toward the newer traffic.
func TestStatsDecay(t *testing.T) {
	st := NewStats()
	old := Session{Query: "q", Docs: []string{"a", "b"}, Clicks: []bool{true, false}}
	if err := st.Add(old); err != nil {
		t.Fatal(err)
	}
	st.Decay(0.5)
	if w := st.Weight(); math.Abs(w-0.5) > 1e-15 {
		t.Fatalf("weight after decay = %v, want 0.5", w)
	}
	// New traffic never clicks a: the decayed old click should weigh
	// half against each fresh skip.
	fresh := Session{Query: "q", Docs: []string{"a", "b"}, Clicks: []bool{false, false}}
	for i := 0; i < 4; i++ {
		if err := st.Add(fresh); err != nil {
			t.Fatal(err)
		}
	}
	m := NewSDBN()
	if err := m.FitStats(st); err != nil {
		t.Fatal(err)
	}
	// a: clicks 0.5, exams 4.5 -> (0.5+1)/(4.5+2)
	want := (0.5 + 1) / (4.5 + 2)
	if got, _ := m.as(m.pairs.row("q"), "a"); math.Abs(got-want) > 1e-12 {
		t.Fatalf("decayed attractiveness = %v, want %v", got, want)
	}
	// Full decay to zero is allowed and FitStats still works (priors).
	st.Decay(0)
	if st.Weight() != 0 {
		t.Fatalf("weight after Decay(0) = %v", st.Weight())
	}
	// Decay with f >= 1 or < 0 is a no-op.
	st2 := NewStats()
	if err := st2.Add(old); err != nil {
		t.Fatal(err)
	}
	st2.Decay(1.5)
	st2.Decay(-1)
	if st2.Weight() != 1 {
		t.Fatalf("out-of-range decay changed weight: %v", st2.Weight())
	}
}

// TestStatsReset: reset keeps interning (stable pair IDs for cached
// idmaps) but drops every count.
func TestStatsReset(t *testing.T) {
	st := NewStats()
	s := Session{Query: "q", Docs: []string{"a", "b"}, Clicks: []bool{true, false}}
	if err := st.Add(s); err != nil {
		t.Fatal(err)
	}
	pairsBefore := st.NumPairs()
	st.Reset()
	if st.NumPairs() != pairsBefore {
		t.Fatalf("Reset dropped interned pairs: %d -> %d", pairsBefore, st.NumPairs())
	}
	if st.Weight() != 0 || st.Added() != 0 {
		t.Fatalf("Reset left mass behind: weight %v added %d", st.Weight(), st.Added())
	}
	m := NewSDBN()
	if err := m.FitStats(st); err != nil {
		t.Fatal(err)
	}
	if n := ParamCount(m); n != 0 {
		t.Fatalf("zeroed stats produced %d parameters", n)
	}
}

// TestStatsInvalidSession: a malformed session is rejected and leaves
// the accumulator untouched.
func TestStatsInvalidSession(t *testing.T) {
	st := NewStats()
	bad := Session{Query: "q", Docs: []string{"a"}, Clicks: []bool{true, false}}
	if err := st.Add(bad); err == nil {
		t.Fatal("invalid session accepted")
	}
	if st.Added() != 0 || st.NumPairs() != 0 {
		t.Fatalf("invalid session mutated the accumulator: %d pairs", st.NumPairs())
	}
	if err := NewSDBN().FitStats(NewStats()); err == nil {
		t.Fatal("FitStats on empty accumulator succeeded")
	}
	if err := NewCascade().FitStats(nil); err == nil {
		t.Fatal("FitStats(nil) succeeded")
	}
	if err := NewDCM().FitStats(NewStats()); err == nil {
		t.Fatal("DCM FitStats on empty accumulator succeeded")
	}
}

// TestStatsPrune: decayed-out pairs are dropped and the survivors keep
// their counts and stay addressable; cached idmaps must be rebuilt, so
// Merge after a prune still lands deltas on the right pairs.
func TestStatsPrune(t *testing.T) {
	st := NewStats()
	// hot clicks at the last position so both pairs count as examined.
	hot := Session{Query: "q", Docs: []string{"hot1", "hot2"}, Clicks: []bool{false, true}}
	cold := Session{Query: "q", Docs: []string{"cold1", "cold2"}, Clicks: []bool{false, true}}
	for i := 0; i < 10; i++ {
		if err := st.Add(hot); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Add(cold); err != nil {
		t.Fatal(err)
	}
	// Age the cold session far below the hot mass, then prune between.
	st.Decay(1e-5)
	for i := 0; i < 10; i++ {
		if err := st.Add(hot); err != nil {
			t.Fatal(err)
		}
	}
	if dropped := st.Prune(1e-3); dropped != 2 {
		t.Fatalf("dropped %d pairs, want the 2 cold ones", dropped)
	}
	if st.NumPairs() != 2 {
		t.Fatalf("pairs after prune: %d", st.NumPairs())
	}
	m := NewSDBN()
	if err := m.FitStats(st); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.pairs.find("q", "hot2"); !ok {
		t.Fatalf("survivor lost its parameters: %v", m.pairs.pairs)
	}
	if _, ok := m.pairs.find("q", "cold1"); ok {
		t.Fatalf("pruned pair still has parameters: %v", m.pairs.pairs)
	}

	// Survivor counts are intact: attractiveness reflects the 10 fresh
	// clicks (plus decayed dust) over as many examined impressions.
	got, _ := m.as(m.pairs.row("q"), "hot2")
	want := (10.0001 + 1) / (10.0001 + 2)
	if math.Abs(got-want) > 1e-3 {
		t.Fatalf("survivor attractiveness %v, want ~%v", got, want)
	}

	// Fresh merges re-intern cleanly after renumbering.
	delta := NewStats()
	if err := delta.Add(cold); err != nil {
		t.Fatal(err)
	}
	st.Merge(delta, nil)
	if st.NumPairs() != 4 {
		t.Fatalf("pairs after post-prune merge: %d", st.NumPairs())
	}
}

// TestStatsPruneDropsEmptiedQueries: a query whose every pair decays out
// leaves the table with them — its string and its doc map — and every
// pair that survives the renumbering is still found at its own ID with
// its own counts. A model fitted before the prune holds a table of its
// own and answers exactly as it did.
func TestStatsPruneDropsEmptiedQueries(t *testing.T) {
	st := NewStats()
	add := func(q string, docs ...string) {
		t.Helper()
		if err := st.Add(Session{Query: q, Docs: docs, Clicks: make([]bool, len(docs))}); err != nil {
			t.Fatal(err)
		}
	}
	add("early", "a", "b") // all of this query's traffic decays out
	add("kept", "a", "c")
	add("mixed", "x", "y")
	st.Decay(1e-5)
	for i := 0; i < 3; i++ {
		add("kept", "a", "c")
		add("mixed", "y")
		add("late", "z")
	}
	before := NewSDBN()
	if err := before.FitStats(st); err != nil {
		t.Fatal(err)
	}
	probe := []Session{
		{Query: "early", Docs: []string{"a", "b"}, Clicks: make([]bool, 2)},
		{Query: "mixed", Docs: []string{"x", "y"}, Clicks: []bool{false, true}},
		{Query: "kept", Docs: []string{"c", "a", "nope"}, Clicks: make([]bool, 3)},
		{Query: "late", Docs: []string{"z"}, Clicks: []bool{true}},
	}
	var want [][]float64
	for _, s := range probe {
		want = append(want, append(before.ClickProbsInto(s, nil), before.SessionLogLikelihood(s)))
	}

	counts := func(p int32) [5]float64 {
		return [5]float64{st.clicks[p], st.examLast[p], st.satNum[p], st.clickFirst[p], st.examFirst[p]}
	}
	survivors := map[qd][5]float64{}
	for _, k := range []qd{{"kept", "a"}, {"kept", "c"}, {"mixed", "y"}, {"late", "z"}} {
		id, ok := st.tab.find(k.q, k.d)
		if !ok {
			t.Fatalf("%v not interned", k)
		}
		survivors[k] = counts(id)
	}
	if dropped := st.Prune(1e-3); dropped != 3 {
		t.Fatalf("dropped %d pairs, want (early, a), (early, b) and (mixed, x)", dropped)
	}
	if _, ok := st.tab.rows["early"]; ok || len(st.tab.rows) != 3 {
		t.Fatalf("the emptied query stayed: %d rows", len(st.tab.rows))
	}
	if st.NumPairs() != len(survivors) {
		t.Fatalf("%d pairs after the prune, want %d", st.NumPairs(), len(survivors))
	}
	for q, r := range st.tab.rows {
		for d, id := range r.docs {
			if k := st.tab.pairs[id]; k != (qd{q, d}) || r.q != q {
				t.Fatalf("query %q (row of %q) maps %q to pair %d, which is %v", q, r.q, d, id, k)
			}
		}
	}
	for k, c := range survivors {
		id, ok := st.tab.find(k.q, k.d)
		if !ok || st.tab.pairs[id] != k || counts(id) != c {
			t.Fatalf("%v: found %v at %d with counts %v, want %v", k, ok, id, counts(id), c)
		}
	}

	for i, s := range probe {
		got := append(before.ClickProbsInto(s, nil), before.SessionLogLikelihood(s))
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("probe %d: the model fitted before the prune answers %v, it answered %v", i, got, want[i])
			}
		}
	}
	// Interning after the prune lands on the compacted table.
	add("early", "b")
	if id, ok := st.tab.find("early", "b"); !ok || int(id) != st.NumPairs()-1 {
		t.Fatalf("re-interned (early, b) at %d (%v) of %d pairs", id, ok, st.NumPairs())
	}
}
