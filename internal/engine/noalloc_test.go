package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestStrandScoreNoalloc backs the //mb:noalloc annotations on
// scoreOne, scoreResolved, resolution.release and batchState.release:
// one warm strand cycle — memoised resolution hit, compiled scorer,
// pin bookkeeping — must not allocate.
func TestStrandScoreNoalloc(t *testing.T) {
	e := New()
	e.UseMicro(testMicroModel())
	assertStrandScoreNoalloc(t, e)
}

// TestInstrumentedStrandScoreNoalloc holds the observed engine to the
// same bar: sampled timing and the CTR tally (scoreOne), the tally's
// hand-over (release) and the batch histogram are plain and atomic
// arithmetic — attaching an Observer must not put an allocation back
// on the warm strand path.
func TestInstrumentedStrandScoreNoalloc(t *testing.T) {
	e := New(WithObserver(&Observer{}))
	e.UseMicro(testMicroModel())
	assertStrandScoreNoalloc(t, e)
	if got := e.Observer().Score.Count(); got == 0 {
		t.Fatal("sampled score timing recorded nothing over 200+ requests")
	}
	dists := predictedCTR(e)
	if len(dists) != 1 || dists[0].Snap.Count == 0 {
		t.Fatalf("CTR distribution not recorded: %+v", dists)
	}
}

func assertStrandScoreNoalloc(t *testing.T, e *Engine) {
	t.Helper()
	ctx := context.Background()
	req := Request{Lines: testLines, MaxN: 3}

	sc := getScratch()
	defer putScratch(sc)
	var bs batchState
	defer bs.release()
	var out Response

	e.scoreOne(ctx, &req, &out, &bs, sc) // warm the memoised resolution
	if out.Err != nil {
		t.Fatalf("warmup scoreOne failed: %v", out.Err)
	}

	allocs := testing.AllocsPerRun(200, func() {
		e.scoreOne(ctx, &req, &out, &bs, sc)
		if err := e.scoreResolved(ctx, &req, bs.name, &bs.mv, sc, &out); err != nil {
			t.Fatal(err)
		}
		bs.release() // hands the tally over; the slot stays resolved
	})
	if allocs != 0 {
		t.Fatalf("warm strand score allocates %v/op, want 0", allocs)
	}
}

// TestStrandNoalloc backs the //mb:noalloc annotation on strand and
// the rule it serves: a batch too small to repay a helper's wake-up is
// scored on its caller without a single allocation, whatever the cap.
// It drives the loop both bare and through ScoreBatchInto — claim,
// stack-held cursor and all — over a frame-sized batch at a cap of 4.
func TestStrandNoalloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates defer records; alloc counts only hold uninstrumented")
	}
	for _, e := range []*Engine{New(WithWorkers(4)), New(WithWorkers(4), WithObserver(&Observer{}))} {
		e.UseMicro(testMicroModel())
		ctx := context.Background()
		reqs := make([]Request, 2*minStrandBatch-1)
		for i := range reqs {
			reqs[i] = Request{Lines: testLines, MaxN: 3}
		}
		out := e.ScoreBatchInto(ctx, reqs, nil) // warm the pooled scratch
		var cursor atomic.Int64
		allocs := testing.AllocsPerRun(100, func() {
			cursor.Store(0)
			e.strands.Add(1) // the slot strand gives back
			e.strand(ctx, reqs, out, &cursor)
			out = e.ScoreBatchInto(ctx, reqs, out)
		})
		if allocs != 0 {
			t.Fatalf("caller-only batch of %d allocates %v/op, want 0", len(reqs), allocs)
		}
		if out[len(out)-1].Err != nil || out[len(out)-1].CTR <= 0 {
			t.Fatalf("last response not scored: %+v", out[len(out)-1])
		}
		if n := e.strands.Load(); n != 0 {
			t.Fatalf("%d strand slots still held", n)
		}
	}
}

// TestMemoNoalloc backs the //mb:noalloc annotations on scoreSnippet,
// scoreHashed, lookup and store: once a shard has its index and its
// ring (each allocated once, on the shard's first lookup and first
// store), a hit, a first miss and a second miss with its store allocate
// nothing.
func TestMemoNoalloc(t *testing.T) {
	e := New()
	e.UseMicro(testMicroModel())
	st := newMemoStrand(e)
	_, _, mv, err := e.resolve(NameMicro)
	if err != nil {
		t.Fatal(err)
	}
	c := mv.scorer.(*MicroScorer).c
	st.sc.ident = mv.ident

	// Three sights of enough snippets that every shard has stored one.
	fresh := make([][]string, 4096)
	for i := range fresh {
		fresh[i] = []string{"Acme Air", fmt.Sprintf("Find cheap flights to gate %d", i)}
	}
	for _, lines := range fresh[:2048] {
		for sight := 0; sight < 3; sight++ {
			st.sc.scoreSnippet(c, lines, 3)
		}
	}
	for i := range e.memo.shards {
		if e.memo.shards[i].ring == nil {
			t.Fatalf("shard %d stored nothing during warm-up", i)
		}
	}
	before := readMemo(e)

	next := 2048
	allocs := testing.AllocsPerRun(500, func() {
		st.sc.scoreSnippet(c, fresh[0], 3)    // hit
		st.sc.scoreSnippet(c, fresh[next], 3) // miss, marker
		st.sc.scoreSnippet(c, fresh[next], 3) // miss, store
		next++
	})
	if allocs != 0 {
		t.Fatalf("warm memo cycle allocates %v/op, want 0", allocs)
	}
	after := readMemo(e)
	if after.Hits-before.Hits < 500 || after.Stores-before.Stores < 500 {
		t.Fatalf("the cycle did not hit and store every run: %+v → %+v", before, after)
	}
}
