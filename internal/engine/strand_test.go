package engine

import (
	"context"
	"errors"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestScoreBatchMatchesSerial holds the strand dispatch to the serial
// reference at every cap and around every size boundary (one chunk,
// one strand's worth, one past it, many strands with a ragged tail):
// each response must be bit-identical to a lone ScoreCTR of the same
// request — mixed models, a pinned version, failing requests and all.
func TestScoreBatchMatchesSerial(t *testing.T) {
	sessions := testSessions(300)
	build := func(workers int) *Engine {
		e := New(WithWorkers(workers))
		e.UseMicro(testMicroModel())
		if _, err := e.Fit("pbm", mustCompile(t, sessions[:200]), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Fit("pbm", mustCompile(t, sessions[:250]), 3); err != nil { // pbm@2; pbm@1 stays pinned-addressable
			t.Fatal(err)
		}
		return e
	}
	request := func(i int) Request {
		id := "r" + strconv.Itoa(i)
		switch i % 7 {
		case 0, 1, 2:
			return Request{ID: id, Lines: testLines, MaxN: 1 + i%3}
		case 3:
			return Request{ID: id, Model: "pbm", Session: &sessions[i%len(sessions)]}
		case 4:
			return Request{ID: id, Model: "pbm@1", Session: &sessions[i%len(sessions)]}
		case 5:
			return Request{ID: id, Model: "micro"} // no evidence
		default:
			return Request{ID: id, Model: "nope", Lines: testLines}
		}
	}
	ctx := context.Background()
	for _, workers := range []int{1, 2, 8} {
		e := build(workers)
		for _, size := range []int{1, 32, 33, 64, 1000, 4099} {
			reqs := make([]Request, size)
			for i := range reqs {
				reqs[i] = request(i)
			}
			got := e.ScoreBatch(ctx, reqs)
			if len(got) != size {
				t.Fatalf("workers=%d size=%d: %d responses", workers, size, len(got))
			}
			for i, g := range got {
				w, _ := e.ScoreCTR(ctx, reqs[i])
				same := g.ID == w.ID && g.Model == w.Model && g.ModelVersion == w.ModelVersion &&
					math.Float64bits(g.CTR) == math.Float64bits(w.CTR) &&
					math.Float64bits(g.Score) == math.Float64bits(w.Score) &&
					g.Error == w.Error && (g.Err == nil) == (w.Err == nil) &&
					len(g.Positions) == len(w.Positions)
				for j := 0; same && j < len(w.Positions); j++ {
					same = math.Float64bits(g.Positions[j]) == math.Float64bits(w.Positions[j])
				}
				if !same {
					t.Fatalf("workers=%d size=%d req %d:\n got %+v\nwant %+v", workers, size, i, g, w)
				}
			}
			if n := e.strands.Load(); n != 0 {
				t.Fatalf("workers=%d size=%d: %d strand slots still held after the batch", workers, size, n)
			}
		}
	}
}

// gateScorer counts the calls inside it at once and holds each one
// until the gate opens, so a test can read off how many strands an
// engine really runs.
type gateScorer struct {
	inflight, peak atomic.Int32
	arrived        chan struct{} // one send per call that found the gate shut
	open           chan struct{}
}

func newGateScorer() *gateScorer {
	return &gateScorer{arrived: make(chan struct{}, 256), open: make(chan struct{})}
}

func (g *gateScorer) ScoreCTR(ctx context.Context, req Request) (Response, error) {
	n := g.inflight.Add(1)
	defer g.inflight.Add(-1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	select {
	case <-g.open:
	default:
		g.arrived <- struct{}{}
		<-g.open
	}
	return Response{CTR: 0.5}, nil
}

// awaitStrands receives n scorer arrivals or fails the test.
func awaitStrands(t *testing.T, arrived <-chan struct{}, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d strands reached the scorer", i, n)
		}
	}
}

// TestStrandCap pins what WithWorkers means: one cap on scoring
// strands across the whole engine, not a pool per batch. A lone caller
// with a large batch is helped up to the cap. Callers that arrive
// while the cap is full add themselves — the receiving goroutine
// always scores — and wake nobody, so eight callers of large batches
// run on 8 + (workers-1) goroutines at the very most, the helpers
// being the ones the first caller claimed while it was alone (a
// per-batch pool ran 8 x workers, plus eight feeders).
func TestStrandCap(t *testing.T) {
	const workers, callers, batch = 4, 8, 1000
	g := newGateScorer()
	e := New(WithWorkers(workers), WithDefaultModel("gate"))
	installed(t, e, "gate", g)
	reqs := make([]Request, batch)

	var wg sync.WaitGroup
	call := func() {
		defer wg.Done()
		for i, resp := range e.ScoreBatch(context.Background(), reqs) {
			if resp.Err != nil {
				t.Errorf("req %d: %v", i, resp.Err)
				return
			}
		}
	}
	// settled gives a strand that should not exist time to show up in
	// the scorer too: it would need one scheduling quantum.
	settled := func(want int32, when string) {
		t.Helper()
		awaitStrands(t, g.arrived, int(want-g.peak.Load()))
		time.Sleep(50 * time.Millisecond)
		if peak, n := g.peak.Load(), e.strands.Load(); peak != want || n != want {
			t.Fatalf("%s: %d strands in the scorer, engine counts %d, want %d", when, peak, n, want)
		}
	}

	wg.Add(1)
	go call()
	settled(workers, "one caller")
	wg.Add(callers - 1)
	for c := 1; c < callers; c++ {
		go call()
	}
	settled(callers+workers-1, "eight callers")

	close(g.open)
	wg.Wait()
	if peak := g.peak.Load(); peak != callers+workers-1 {
		t.Errorf("peak rose to %d strands after the gate opened", peak)
	}
	if n := e.strands.Load(); n != 0 {
		t.Errorf("%d strand slots still held after every batch returned", n)
	}
}

// cancelScorer blocks every call on the context and counts calls per
// request, so a cancelled batch can be audited slot by slot.
type cancelScorer struct {
	calls   []atomic.Int32
	arrived chan struct{}
}

func (c *cancelScorer) ScoreCTR(ctx context.Context, req Request) (Response, error) {
	i, _ := strconv.Atoi(req.ID)
	c.calls[i].Add(1)
	select {
	case c.arrived <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return Response{}, ctx.Err()
}

// TestScoreBatchCancelledWithHelpers cancels a batch while the caller
// and its helpers are all inside the scorer: the same strands must
// drain the rest, so every slot comes back stamped with its request's
// ID and the cancellation, no request reaches the scorer twice, and
// the slots nobody scored were filled by the drain.
func TestScoreBatchCancelledWithHelpers(t *testing.T) {
	const workers, batch = 4, 2000
	c := &cancelScorer{calls: make([]atomic.Int32, batch), arrived: make(chan struct{}, batch)}
	e := New(WithWorkers(workers), WithDefaultModel("slow"))
	installed(t, e, "slow", c)
	reqs := make([]Request, batch)
	for i := range reqs {
		reqs[i] = Request{ID: strconv.Itoa(i)}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan []Response, 1)
	go func() { done <- e.ScoreBatch(ctx, reqs) }()
	awaitStrands(t, c.arrived, workers)
	cancel()

	resps := <-done
	if len(resps) != batch {
		t.Fatalf("got %d responses, want %d", len(resps), batch)
	}
	scored := 0
	for i, resp := range resps {
		if resp.ID != reqs[i].ID || resp.Model != "slow" {
			t.Fatalf("slot %d: ID %q Model %q, want %q / slow", i, resp.ID, resp.Model, reqs[i].ID)
		}
		if !errors.Is(resp.Err, context.Canceled) || resp.Error == "" {
			t.Fatalf("slot %d: Err = %v (%q), want context.Canceled", i, resp.Err, resp.Error)
		}
		n := c.calls[i].Load()
		if n > 1 {
			t.Fatalf("request %d reached the scorer %d times", i, n)
		}
		scored += int(n)
	}
	// Each strand was inside its first chunk when the cancel landed and
	// finishes it (the check is per chunk); everything past those chunks
	// can only have been drained.
	if scored != workers*strandChunk {
		t.Errorf("%d requests reached the scorer, want %d strands x one chunk of %d", scored, workers, strandChunk)
	}
	if n := e.strands.Load(); n != 0 {
		t.Errorf("%d strand slots still held after the batch", n)
	}
}

// cancellingScorer predicts a constant CTR and cancels the batch's
// context on its at-th call.
type cancellingScorer struct {
	calls  atomic.Int32
	at     int32
	cancel context.CancelFunc
}

func (c *cancellingScorer) ScoreCTR(ctx context.Context, req Request) (Response, error) {
	if c.calls.Add(1) == c.at {
		c.cancel()
	}
	return Response{CTR: 0.3}, nil
}

// TestStrandTally: a strand tallies its versions' predicted-CTR samples
// in its own memory and hands them to each version's histogram when a
// resolution slot is evicted and when the strand ends. By the time
// ScoreBatchInto returns, every version's histogram counts exactly its
// successful scores — helpers' included, a failed request's never — and
// an install right after the batch pins a drift baseline that holds the
// whole batch.
func TestStrandTally(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mix      []Request // request i is mix[i%len(mix)]
		cancelAt int32     // the call of model "c" that cancels the batch; 0 never
	}{
		// Three references in turn evict a resolution slot on every request.
		{"three models alternate", []Request{{Model: "a"}, {Model: "b"}, {Lines: testLines, MaxN: 3}}, 0},
		{"failing requests", []Request{
			{Lines: testLines},
			{Model: NameMicro},                // resolves, then the scorer refuses it: no lines
			{Model: "nope", Lines: testLines}, // does not resolve
			{Model: "a"},
			{Model: "a@9", Lines: testLines}, // no such version
		}, 0},
		{"cancelled", []Request{{Model: "c"}, {Model: "a"}, {Lines: testLines}}, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			e := New(WithWorkers(4), WithObserver(&Observer{}))
			e.UseMicro(testMicroModel())
			installed(t, e, "a", fixedScorer{ctr: 0.01})
			installed(t, e, "b", fixedScorer{ctr: 0.2})
			installed(t, e, "c", &cancellingScorer{at: tc.cancelAt, cancel: cancel})
			names := []string{NameMicro, "a", "b", "c"}

			reqs := make([]Request, 1000) // the caller and three helpers
			for i := range reqs {
				reqs[i] = tc.mix[i%len(tc.mix)]
			}
			scored := map[string]uint64{} // successful scores by model@version
			var out []Response
			for batch := 0; batch < 2; batch++ {
				out = e.ScoreBatchInto(ctx, reqs, out)
				for _, r := range out {
					if r.Err == nil {
						scored[r.Model+"@"+strconv.Itoa(r.ModelVersion)]++
					}
				}
				for _, name := range names {
					_, v, mv, err := e.resolve(name)
					if err != nil {
						t.Fatal(err)
					}
					ref := name + "@" + strconv.Itoa(v)
					if got := mv.ctr.Count(); got != scored[ref] {
						t.Fatalf("batch %d: %s's predicted_ctr counts %d samples, %d scores succeeded", batch, ref, got, scored[ref])
					}
				}
			}
			if tc.cancelAt != 0 && !errors.Is(out[len(out)-1].Err, context.Canceled) {
				t.Fatalf("the batch was not cancelled: %+v", out[len(out)-1])
			}

			// Every version with samples is a baseline for the next one,
			// pinned with all of them.
			for _, name := range names {
				installed(t, e, name, fixedScorer{ctr: 0.5})
			}
			pinned := map[string]uint64{}
			for _, d := range e.Drift() {
				pinned[d.Model+"@"+strconv.Itoa(d.BaselineVersion)] = d.BaselineSamples
			}
			for _, name := range names {
				ref := name + "@1"
				if pinned[ref] != scored[ref] {
					t.Errorf("%s@2 pinned a baseline of %d samples, %s scored %d", name, pinned[ref], ref, scored[ref])
				}
			}
		})
	}
}

// TestStrandClaim walks the claim arithmetic: a batch asks for one
// strand per minStrandBatch requests, the caller's included, and gets
// what the cap has left after the strands other batches hold — never
// less than the caller itself.
func TestStrandClaim(t *testing.T) {
	const workers = 4
	for _, tc := range []struct {
		held    int32 // strands other batches are running
		size    int
		strands int32 // strands this batch should run on
	}{
		{0, 1, 1},
		{0, minStrandBatch, 1},
		{0, 2*minStrandBatch - 1, 1},
		{0, 2 * minStrandBatch, 2},
		{0, 3 * minStrandBatch, 3},
		{0, 100 * minStrandBatch, workers},
		{2, 100 * minStrandBatch, 2},
		{3, 100 * minStrandBatch, 1},
		{4, 100 * minStrandBatch, 1},
		{9, 100 * minStrandBatch, 1},
	} {
		g := newGateScorer()
		e := New(WithWorkers(workers), WithDefaultModel("gate"))
		installed(t, e, "gate", g)
		e.strands.Store(tc.held)
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.ScoreBatch(context.Background(), make([]Request, tc.size))
		}()
		awaitStrands(t, g.arrived, int(tc.strands))
		time.Sleep(20 * time.Millisecond) // as in TestStrandCap: time for a strand too many to show
		if peak := g.peak.Load(); peak != tc.strands {
			t.Errorf("held=%d size=%d: batch ran on %d strands, want %d", tc.held, tc.size, peak, tc.strands)
		}
		if n := e.strands.Load(); n != tc.held+tc.strands {
			t.Errorf("held=%d size=%d: counter at %d with the batch in flight, want %d", tc.held, tc.size, n, tc.held+tc.strands)
		}
		close(g.open)
		<-done
		if n := e.strands.Load(); n != tc.held {
			t.Errorf("held=%d size=%d: counter at %d after the batch, want it back at %d", tc.held, tc.size, n, tc.held)
		}
	}
}

// installingScorer installs a new version of a model the first time it
// scores: a hot swap that lands in the middle of a batch.
type installingScorer struct {
	e    *Engine
	name string
	once sync.Once
}

func (s *installingScorer) ScoreCTR(ctx context.Context, req Request) (Response, error) {
	s.once.Do(func() {
		if _, err := s.e.Install(s.name, fixedScorer{ctr: 0.9}, "register"); err != nil {
			panic(err)
		}
	})
	return Response{CTR: 0.1}, nil
}

// TestStrandMemoisesTwoModels: a strand keeps two resolutions, so a
// batch that alternates two models — the mixed frames of a serving
// protocol — resolves each once, not once per item; and every item of
// one reference in one strand answers from one version, even when an
// install of that model lands while the batch is scored. A third
// reference evicts the resolution used least recently.
func TestStrandMemoisesTwoModels(t *testing.T) {
	o := &Observer{}
	e := New(WithObserver(o))
	installed(t, e, "a", &installingScorer{e: e, name: "a"})
	installed(t, e, "b", fixedScorer{ctr: 0.2})
	installed(t, e, "c", fixedScorer{ctr: 0.3})
	ctx := context.Background()
	batch := func(refs ...string) []Response {
		reqs := make([]Request, 64)
		for i := range reqs {
			reqs[i] = Request{Model: refs[i%len(refs)]}
		}
		before := o.Resolve.Count()
		resps := e.ScoreBatch(ctx, reqs)
		if got, want := o.Resolve.Count()-before, uint64(len(refs)); got != want {
			t.Fatalf("a batch alternating %v recorded %d resolve samples, want %d", refs, got, want)
		}
		return resps
	}

	for i, r := range batch("a", "b") {
		want := map[string]int{"a": 1, "b": 1}[r.Model]
		if r.Err != nil || r.ModelVersion != want {
			t.Fatalf("item %d: %s@%d (%v), want version %d: the install mid-batch reached it", i, r.Model, r.ModelVersion, r.Err, want)
		}
	}
	if r := batch("a")[0]; r.ModelVersion != 2 || r.CTR != 0.9 {
		t.Fatalf("the next batch scored %s@%d at %v, want the installed a@2", r.Model, r.ModelVersion, r.CTR)
	}

	// Three references in turn: each miss evicts the slot the previous
	// request did not use, which is the next one asked for.
	var bs batchState
	defer bs.release()
	var out Response
	sc := getScratch()
	defer putScratch(sc)
	before := o.Resolve.Count()
	for _, ref := range []string{"a", "b", "a", "b", "c", "b", "c", "a"} {
		e.scoreOne(ctx, &Request{Model: ref}, &out, &bs, sc)
		if out.Err != nil || out.Model != ref {
			t.Fatalf("%s scored as %s (%v)", ref, out.Model, out.Err)
		}
	}
	if got := o.Resolve.Count() - before; got != 4 {
		t.Fatalf("a, b, a, b, c, b, c, a resolved %d times, want 4 (a, b, c, a)", got)
	}
}
