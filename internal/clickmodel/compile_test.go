package clickmodel

import (
	"math"
	"sync"
	"testing"
)

func TestCompileLayout(t *testing.T) {
	sessions := []Session{
		{Query: "q1", Docs: []string{"a", "b", "c"}, Clicks: []bool{false, true, false}},
		{Query: "q2", Docs: []string{"a"}, Clicks: []bool{true}},
		{Query: "q1", Docs: []string{"b", "a"}, Clicks: []bool{false, false}},
	}
	c, err := Compile(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSessions() != 3 || len(c.pair) != 6 || c.maxPos != 3 {
		t.Fatalf("sizes: %d sessions, %d impressions, %d maxPos",
			c.NumSessions(), len(c.pair), c.maxPos)
	}
	// (q1,a), (q1,b), (q1,c), (q2,a) — 4 distinct pairs; (q1,b) reused.
	if c.NumPairs() != 4 {
		t.Fatalf("NumPairs = %d, want 4", c.NumPairs())
	}
	if id, ok := c.tab.find("q1", "b"); !ok {
		t.Fatal("missing pair (q1, b)")
	} else if k := c.tab.pairs[id]; k.q != "q1" || k.d != "b" {
		t.Fatalf("pair round-trip = (%s, %s)", k.q, k.d)
	}
	if _, ok := c.tab.find("q2", "b"); ok {
		t.Fatal("find invented a pair")
	}
	// Session 2 shares pair IDs with session 0.
	id1, _ := c.tab.find("q1", "b")
	if c.pair[c.off[2]] != id1 {
		t.Fatal("pair interning not shared across sessions")
	}
	// Derived per-session state matches the Session helpers.
	for s, sess := range sessions {
		if int(c.last[s]) != sess.LastClick() || int(c.first[s]) != sess.FirstClick() {
			t.Fatalf("session %d: last/first = %d/%d, want %d/%d",
				s, c.last[s], c.first[s], sess.LastClick(), sess.FirstClick())
		}
		prev := prevClickIndex(sess)
		for i := range sess.Docs {
			if int(c.prev[c.off[s]+int32(i)]) != prev[i] {
				t.Fatalf("session %d pos %d: prev = %d, want %d",
					s, i, c.prev[c.off[s]+int32(i)], prev[i])
			}
		}
	}
	// Count constants.
	if c.posCount[0] != 3 || c.posCount[1] != 2 || c.posCount[2] != 1 {
		t.Fatalf("posCount = %v", c.posCount)
	}
	if id, _ := c.tab.find("q1", "a"); c.pairCount[id] != 2 {
		t.Fatalf("pairCount[(q1,a)] = %v, want 2", c.pairCount[id])
	}
}

func TestCompileRejectsBadLogs(t *testing.T) {
	if _, err := Compile(nil); err == nil {
		t.Error("Compile accepted an empty log")
	}
	bad := []Session{{Query: "q", Docs: []string{"a"}, Clicks: nil}}
	if _, err := Compile(bad); err == nil {
		t.Error("Compile accepted a malformed session")
	}
}

func TestFitLogNilGuard(t *testing.T) {
	for _, m := range allModels(t) {
		if err := m.FitLog(nil); err == nil {
			t.Errorf("%s.FitLog(nil) succeeded", m.Name())
		}
	}
}

func TestUBMCellCounts(t *testing.T) {
	sessions := []Session{
		{Query: "q", Docs: []string{"a", "b"}, Clicks: []bool{true, false}},
		{Query: "q", Docs: []string{"a", "b"}, Clicks: []bool{false, false}},
	}
	c, err := Compile(sessions)
	if err != nil {
		t.Fatal(err)
	}
	cells := c.ubmCellCounts()
	// Position 0 col 0: both sessions. Position 1: col 1 (click at 1)
	// once, col 0 once.
	if cells[tri(0)+0] != 2 {
		t.Errorf("cell (0,0) = %v, want 2", cells[tri(0)+0])
	}
	if cells[tri(1)+1] != 1 || cells[tri(1)+0] != 1 {
		t.Errorf("cells (1,·) = %v/%v, want 1/1", cells[tri(1)+0], cells[tri(1)+1])
	}
}

func TestEMWorkersResolution(t *testing.T) {
	if got := emWorkers(4, 10); got != 4 {
		t.Errorf("explicit workers = %d, want 4", got)
	}
	if got := emWorkers(8, 3); got != 3 {
		t.Errorf("workers capped by sessions = %d, want 3", got)
	}
	if got := emWorkers(0, 10); got != 1 {
		t.Errorf("auto workers on tiny log = %d, want 1", got)
	}
	if got := emWorkers(-1, 0); got != 1 {
		t.Errorf("degenerate workers = %d, want 1", got)
	}
}

func TestForEachShardCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		covered := make([]int32, 100)
		var mu sync.Mutex
		forEachShard(workers, len(covered), func(w, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		})
		for i, n := range covered {
			if n != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, n)
			}
		}
	}
}

// TestConcurrentFitsShareLog exercises concurrent FitLog calls of
// separate model instances over one shared CompiledLog with a forced
// parallel E-step — the -race target for the pooled scratch and the
// read-only compiled log.
func TestConcurrentFitsShareLog(t *testing.T) {
	sessions := synthParityLog(707, 2500)
	c, err := Compile(sessions)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pbm := NewPBM()
			pbm.Iterations, pbm.Workers = 4, 3
			if err := pbm.FitLog(c); err != nil {
				errs <- err
				return
			}
			dbn := NewDBN()
			dbn.Iterations, dbn.Workers = 4, 3
			if err := dbn.FitLog(c); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInplaceScorersMatchClickProbs pins ClickProbsInto into a reused
// buffer to ClickProbsInto into a fresh one for every model, across
// sessions of different lengths.
func TestInplaceScorersMatchClickProbs(t *testing.T) {
	sessions := synthParityLog(808, 800)
	for _, m := range allModels(t) {
		if err := fitSessions(m, sessions); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		var buf []float64
		for _, s := range sessions[:100] {
			want := m.ClickProbsInto(s, nil)
			buf = m.ClickProbsInto(s, buf)
			if len(buf) != len(want) {
				t.Fatalf("%s: len %d, want %d", m.Name(), len(buf), len(want))
			}
			for i := range want {
				if math.Abs(buf[i]-want[i]) > 1e-12 {
					t.Fatalf("%s: pos %d: %v vs %v", m.Name(), i, buf[i], want[i])
				}
			}
		}
	}
}

// TestDeepSessionScoring covers the heap fallback of the stack-buffered
// scoring recursions (sessions deeper than maxStackPositions).
func TestDeepSessionScoring(t *testing.T) {
	depth := maxStackPositions + 8
	docs := make([]string, depth)
	clicks := make([]bool, depth)
	for i := range docs {
		docs[i] = string(rune('a' + i%26))
		clicks[i] = i%17 == 3
	}
	sessions := []Session{{Query: "q", Docs: docs, Clicks: clicks}}
	m := NewUBM()
	m.Iterations = 2
	if err := fitSessions(m, sessions); err != nil {
		t.Fatal(err)
	}
	probs := m.ClickProbsInto(sessions[0], nil)
	if len(probs) != depth {
		t.Fatalf("len = %d, want %d", len(probs), depth)
	}
	for i, p := range probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("probs[%d] = %v", i, p)
		}
	}
}
