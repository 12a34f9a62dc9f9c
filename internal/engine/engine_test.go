package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/featstats"
	"repro/internal/ml"
	"repro/internal/textproc"
)

// mustCompile compiles a session log for Engine.Fit.
func mustCompile(t testing.TB, sessions []clickmodel.Session) *clickmodel.CompiledLog {
	t.Helper()
	c, err := clickmodel.Compile(sessions)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testSessions builds a deterministic synthetic session log with a
// strong position bias, enough to fit any registry model.
func testSessions(n int) []clickmodel.Session {
	rng := rand.New(rand.NewSource(7))
	docs := []string{"a", "b", "c", "d", "e", "f"}
	gamma := []float64{0.9, 0.6, 0.4, 0.2}
	out := make([]clickmodel.Session, 0, n)
	for k := 0; k < n; k++ {
		s := clickmodel.Session{Query: "q", Docs: make([]string, 4), Clicks: make([]bool, 4)}
		for i := range s.Docs {
			s.Docs[i] = docs[rng.Intn(len(docs))]
			s.Clicks[i] = rng.Float64() < gamma[i]*0.4
		}
		out = append(out, s)
	}
	return out
}

func testMicroModel() *core.Model {
	m := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.9, 0.6, 0.3}, Decay: 0.8})
	m.Relevance["find cheap"] = 0.85
	m.Relevance["flights"] = 0.6
	return m
}

var testLines = []string{"Acme Air", "Find cheap flights to Rome", "Great rates"}

func TestResolveUnknownModel(t *testing.T) {
	e := New()
	_, err := e.ScoreCTR(context.Background(), Request{Model: "bogus", Lines: testLines})
	if err == nil {
		t.Fatal("unknown model scored without error")
	}
	if !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), "pbm") {
		t.Errorf("error should name the request and the registry: %v", err)
	}
}

func TestResolveKnownButUnfitted(t *testing.T) {
	e := New()
	_, err := e.ScoreCTR(context.Background(), Request{Model: "PBM", Session: &clickmodel.Session{Docs: []string{"a"}, Clicks: []bool{false}}})
	if err == nil {
		t.Fatal("unfitted registry model scored without error")
	}
	if !strings.Contains(err.Error(), "Fit") {
		t.Errorf("error should hint at Fit: %v", err)
	}
}

// TestMicroMatchesDirectModel checks batch micro scoring against the
// direct core.Model computation: Score must equal ExpectedScore and
// CTR must equal the exact Eq. 3 expectation.
func TestMicroMatchesDirectModel(t *testing.T) {
	m := testMicroModel()
	e := New(WithWorkers(3))
	e.UseMicro(m)

	reqs := []Request{
		{ID: "r1", Lines: testLines},
		{ID: "r2", Lines: []string{"Acme Air", "Flying to Rome today", "Great rates"}},
		{ID: "r3", Lines: testLines, MaxN: 1},
	}
	resps := e.ScoreBatch(context.Background(), reqs)
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("resp %d: %v", i, resp.Err)
		}
		if resp.ID != reqs[i].ID {
			t.Errorf("resp %d: ID %q, want %q", i, resp.ID, reqs[i].ID)
		}
		if resp.Model != NameMicro {
			t.Errorf("resp %d: model %q", i, resp.Model)
		}
		maxN := reqs[i].MaxN
		if maxN == 0 {
			maxN = 2
		}
		terms := textproc.ExtractTerms(reqs[i].Lines, maxN)
		if want := m.ExpectedScore(terms); math.Abs(resp.Score-want) > 1e-12 {
			t.Errorf("resp %d: Score %v, want %v", i, resp.Score, want)
		}
		want := 1.0
		for _, tm := range terms {
			a := m.Examine(tm)
			want *= a*m.TermRelevance(tm.Text) + 1 - a
		}
		if math.Abs(resp.CTR-want) > 1e-12 {
			t.Errorf("resp %d: CTR %v, want %v", i, resp.CTR, want)
		}
		if resp.CTR <= 0 || resp.CTR > 1 {
			t.Errorf("resp %d: CTR %v outside (0,1]", i, resp.CTR)
		}
	}
}

// TestClickModelMatchesDirect fits PBM through the engine and checks
// batch responses against the fitted model's own ClickProbsInto.
func TestClickModelMatchesDirect(t *testing.T) {
	sessions := testSessions(400)
	train, test := sessions[:300], sessions[300:]

	e := New(WithWorkers(4), WithDefaultModel("pbm"))
	fitted, err := e.Fit("pbm", mustCompile(t, train), 0)
	if err != nil {
		t.Fatal(err)
	}

	reqs := make([]Request, len(test))
	for i := range test {
		reqs[i] = Request{ID: fmt.Sprintf("s%d", i), Session: &test[i]}
	}
	resps := e.ScoreBatch(context.Background(), reqs)
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("resp %d: %v", i, resp.Err)
		}
		want := fitted.ClickProbsInto(test[i], nil)
		if len(resp.Positions) != len(want) {
			t.Fatalf("resp %d: %d positions, want %d", i, len(resp.Positions), len(want))
		}
		var mean float64
		for j, p := range want {
			if math.Abs(resp.Positions[j]-p) > 1e-12 {
				t.Errorf("resp %d pos %d: %v, want %v", i, j, resp.Positions[j], p)
			}
			mean += p
		}
		mean /= float64(len(want))
		if math.Abs(resp.CTR-mean) > 1e-12 {
			t.Errorf("resp %d: CTR %v, want mean %v", i, resp.CTR, mean)
		}
	}
}

// TestScoreBatchPerRequestErrors mixes scorable and unscorable
// requests: failures must stay local to their slot.
func TestScoreBatchPerRequestErrors(t *testing.T) {
	e := New(WithWorkers(2))
	e.UseMicro(testMicroModel())
	reqs := []Request{
		{ID: "ok1", Lines: testLines},
		{ID: "bad-evidence"}, // micro request without lines
		{ID: "bad-model", Model: "nope", Lines: testLines},
		{ID: "ok2", Lines: testLines},
	}
	resps := e.ScoreBatch(context.Background(), reqs)
	if resps[0].Err != nil || resps[3].Err != nil {
		t.Fatalf("good requests failed: %v / %v", resps[0].Err, resps[3].Err)
	}
	if !errors.Is(resps[1].Err, ErrNoEvidence) {
		t.Errorf("evidence-less request: Err = %v, want ErrNoEvidence", resps[1].Err)
	}
	if resps[2].Err == nil {
		t.Error("unknown-model request succeeded")
	}
}

// blockingScorer blocks every call until its gate closes (or the
// context is cancelled), to hold a batch in flight.
type blockingScorer struct {
	gate    chan struct{}
	started chan struct{}
	once    sync.Once
}

func (b *blockingScorer) ScoreCTR(ctx context.Context, req Request) (Response, error) {
	b.once.Do(func() { close(b.started) })
	select {
	case <-b.gate:
		return Response{CTR: 0.5}, nil
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

// TestScoreBatchCancellation cancels a batch mid-flight: ScoreBatch
// must return promptly with every slot filled and cancellation errors
// on the unprocessed requests.
func TestScoreBatchCancellation(t *testing.T) {
	b := &blockingScorer{gate: make(chan struct{}), started: make(chan struct{})}
	e := New(WithWorkers(2), WithDefaultModel("slow"))
	installed(t, e, "slow", b)

	ctx, cancel := context.WithCancel(context.Background())
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{ID: fmt.Sprintf("r%d", i)}
	}
	done := make(chan []Response, 1)
	go func() { done <- e.ScoreBatch(ctx, reqs) }()

	<-b.started // a worker is inside the scorer, batch is in flight
	cancel()

	resps := <-done
	if len(resps) != len(reqs) {
		t.Fatalf("got %d responses, want %d", len(resps), len(reqs))
	}
	cancelled := 0
	for i, resp := range resps {
		if resp.ID != reqs[i].ID {
			t.Errorf("resp %d: ID %q, want %q", i, resp.ID, reqs[i].ID)
		}
		if errors.Is(resp.Err, context.Canceled) {
			cancelled++
		} else if resp.Err != nil {
			t.Errorf("resp %d: unexpected error %v", i, resp.Err)
		}
	}
	if cancelled == 0 {
		t.Error("no request observed the cancellation")
	}
}

// TestScoreBatchPreCancelled: a batch under an already-dead context
// does no work at all.
func TestScoreBatchPreCancelled(t *testing.T) {
	e := New()
	e.UseMicro(testMicroModel())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resps := e.ScoreBatch(ctx, []Request{{ID: "a", Lines: testLines}, {ID: "b", Lines: testLines}})
	for i, resp := range resps {
		if !errors.Is(resp.Err, context.Canceled) {
			t.Errorf("resp %d: Err = %v, want context.Canceled", i, resp.Err)
		}
	}
}

// TestConcurrentScoreBatch hammers one engine from many goroutines
// mixing micro and macro requests — the go test -race target.
func TestConcurrentScoreBatch(t *testing.T) {
	sessions := testSessions(200)
	e := New(WithWorkers(4))
	e.UseMicro(testMicroModel())
	if _, err := e.Fit("sdbn", mustCompile(t, sessions[:150]), 0); err != nil {
		t.Fatal(err)
	}

	reqs := make([]Request, 0, 60)
	for i := 0; i < 30; i++ {
		reqs = append(reqs, Request{ID: fmt.Sprintf("m%d", i), Lines: testLines})
		reqs = append(reqs, Request{ID: fmt.Sprintf("s%d", i), Model: "sdbn", Session: &sessions[150+i%50]})
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				for i, resp := range e.ScoreBatch(context.Background(), reqs) {
					if resp.Err != nil {
						t.Errorf("req %d: %v", i, resp.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestEngineModelsAndRegister(t *testing.T) {
	e := New()
	if n := len(e.Models()); n != 0 {
		t.Fatalf("fresh engine has %d scorers", n)
	}
	e.UseMicro(testMicroModel())
	if _, err := e.Fit("cascade", mustCompile(t, testSessions(50)), 0); err != nil {
		t.Fatal(err)
	}
	got := e.Models()
	if len(got) != 2 || got[0].Name != "cascade" || got[1].Name != "micro" {
		t.Fatalf("Models() = %v", got)
	}
	for _, mi := range got {
		if mi.Version != 1 || !mi.Latest {
			t.Errorf("%s: version %d latest %v, want fresh v1 latest", mi.Name, mi.Version, mi.Latest)
		}
		if mi.Params <= 0 {
			t.Errorf("%s: Params = %d", mi.Name, mi.Params)
		}
		if mi.FittedAt.IsZero() {
			t.Errorf("%s: FittedAt is zero", mi.Name)
		}
	}
	if got[0].Source != "fit" || got[1].Source != "register" {
		t.Errorf("sources = %q, %q", got[0].Source, got[1].Source)
	}
	if names := e.ModelNames(); len(names) != 2 || names[0] != "cascade" || names[1] != "micro" {
		t.Errorf("ModelNames() = %v", names)
	}
	// The default micro scorer is materialised lazily on first use.
	e2 := New()
	if _, err := e2.ScoreCTR(context.Background(), Request{Lines: testLines}); err != nil {
		t.Fatal(err)
	}
	if got := e2.Models(); len(got) != 1 || got[0].Name != NameMicro {
		t.Errorf("lazy micro not installed: %v", got)
	}
}

func TestFitUnknownModel(t *testing.T) {
	e := New()
	if _, err := e.Fit("nope", mustCompile(t, testSessions(10)), 0); err == nil {
		t.Fatal("Fit of unknown model succeeded")
	}
}

func TestFitIterationsOption(t *testing.T) {
	e := New()
	c := mustCompile(t, testSessions(50))
	m, err := e.Fit("pbm", c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*clickmodel.PBM).Iterations; got != 3 {
		t.Errorf("Iterations = %d, want 3", got)
	}
	// Non-positive values keep the model default.
	m, err = e.Fit("ubm", c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*clickmodel.UBM).Iterations; got != 20 {
		t.Errorf("default Iterations = %d, want 20", got)
	}
	// Non-iterative models ignore the count.
	if _, err := e.Fit("cascade", c, 7); err != nil {
		t.Fatal(err)
	}
}

func TestFitCompiled(t *testing.T) {
	e := New()
	sessions := testSessions(100)
	c := mustCompile(t, sessions)
	// Dense path: the compiled log feeds FitLog directly and matches
	// the same fit by hand on a fresh compile of the sessions.
	m, err := e.Fit("pbm", c, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := clickmodel.NewPBM()
	want.Iterations = 4
	if err := want.FitLog(mustCompile(t, sessions)); err != nil {
		t.Fatal(err)
	}
	for i, s := range sessions[:20] {
		a, b := m.ClickProbsInto(s, nil), want.ClickProbsInto(s, nil)
		for j := range a {
			if math.Abs(a[j]-b[j]) > 1e-9 {
				t.Fatalf("session %d pos %d: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
	// Fallback path: SUM has no FitLog and trains from c.Sessions().
	if _, err := e.Fit("sum", c, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Fit("nope", c, 0); err == nil {
		t.Fatal("Fit of unknown model succeeded")
	}
	// A nil log errors for both the FitLog and the fallback path.
	if _, err := e.Fit("pbm", nil, 0); err == nil {
		t.Fatal("Fit(pbm, nil) succeeded")
	}
	if _, err := e.Fit("sum", nil, 0); err == nil {
		t.Fatal("Fit(sum, nil) succeeded")
	}
}

// TestScoreCTRInplacePath pins the scorer fast path: batch scoring a
// fitted compiled-log model produces the model's own probabilities.
func TestScoreCTRInplacePath(t *testing.T) {
	e := New()
	sessions := testSessions(200)
	m, err := e.Fit("dbn", mustCompile(t, sessions), 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.ScoreCTR(context.Background(), Request{Model: "dbn", Session: &sessions[0]})
	if err != nil {
		t.Fatal(err)
	}
	want := m.ClickProbsInto(sessions[0], nil)
	if len(resp.Positions) != len(want) {
		t.Fatalf("positions len %d, want %d", len(resp.Positions), len(want))
	}
	for i := range want {
		if math.Abs(resp.Positions[i]-want[i]) > 1e-12 {
			t.Errorf("pos %d: %v, want %v", i, resp.Positions[i], want[i])
		}
	}
}

func TestMeanCTR(t *testing.T) {
	if got, err := MeanCTR(nil); err != nil || got != 0 {
		t.Errorf("MeanCTR(nil) = %v, %v", got, err)
	}
	got, err := MeanCTR([]Response{{CTR: 0.2}, {CTR: 0.4}})
	if err != nil || math.Abs(got-0.3) > 1e-12 {
		t.Errorf("MeanCTR = %v, %v; want 0.3", got, err)
	}
	if _, err := MeanCTR([]Response{{CTR: 0.2}, {Err: ErrNoEvidence}}); !errors.Is(err, ErrNoEvidence) {
		t.Errorf("MeanCTR should surface the request error, got %v", err)
	}
}

func TestMicroFromStats(t *testing.T) {
	db := featstats.New(1)
	for i := 0; i < 20; i++ {
		db.Observe(featstats.TermKey("find cheap"), 1)
	}
	for i := 0; i < 20; i++ {
		db.Observe(featstats.TermKey("terms apply"), -1)
	}
	db.Observe(featstats.RewriteKey("a", "b"), 1) // non-term keys are skipped

	m := MicroFromStats(db, core.FullAttention{}, 4)
	if len(m.Relevance) != 2 {
		t.Fatalf("Relevance has %d entries, want 2: %v", len(m.Relevance), m.Relevance)
	}
	want := ml.Sigmoid(db.LogOddsSmoothed(featstats.TermKey("find cheap"), 4))
	if got := m.Relevance["find cheap"]; math.Abs(got-want) > 1e-12 {
		t.Errorf("relevance[find cheap] = %v, want %v", got, want)
	}
	if up, down := m.Relevance["find cheap"], m.Relevance["terms apply"]; up <= 0.5 || down >= 0.5 {
		t.Errorf("lift direction lost: up %v, down %v", up, down)
	}
}

// installed publishes s under name the way code wiring a scorer in
// does, and fails the test if the engine refuses it.
func installed(t testing.TB, e *Engine, name string, s Scorer) ModelInfo {
	t.Helper()
	info, err := e.Install(name, s, "register")
	if err != nil {
		t.Fatalf("Install(%q): %v", name, err)
	}
	return info
}
