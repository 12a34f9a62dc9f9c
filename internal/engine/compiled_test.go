package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"

	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/core/coreref"
)

// TestCompiledMicroMatchesMapScorer pins the engine-visible compiled
// scorer to the reference map-based computation (package coreref)
// across attention families — the serving-level half of the core
// parity suite.
func TestCompiledMicroMatchesMapScorer(t *testing.T) {
	attentions := []core.Attention{
		nil,
		core.FullAttention{},
		core.GeometricAttention{LineWeights: []float64{0.95, 0.7, 0.45}, Decay: 0.85},
		core.TableAttention{W: [][]float64{{0.9, 0.7, 0.5}, {0.6, 0.4}}, Default: 0.25},
	}
	snippets := [][]string{
		testLines,
		{"20% Off — From $99", "Don't Miss Out!"},
		{"unknown terms only, nothing interned"},
	}
	ctx := context.Background()
	for ai, att := range attentions {
		m := core.NewModel(att)
		m.Relevance["find cheap"] = 0.85
		m.Relevance["flights"] = 0.6
		m.Relevance["20%"] = 0.9
		compiled := NewMicroScorer(m)
		for _, lines := range snippets {
			for _, maxN := range []int{0, 1, 2, 3} {
				req := Request{Lines: lines, MaxN: maxN}
				got, err := compiled.ScoreCTR(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				var want Response // the reference: Eq. 3–5 term by term over the map
				want.CTR, want.Score = coreref.ScoreSnippet(m, lines, req.maxN())
				if math.Abs(got.CTR-want.CTR) > 1e-12 || math.Abs(got.Score-want.Score) > 1e-12 {
					t.Errorf("attention %d lines %q maxN %d: compiled (%v, %v), map (%v, %v)",
						ai, lines, maxN, got.CTR, got.Score, want.CTR, want.Score)
				}
			}
		}
	}
}

// TestCompiledMicroHotSwapUnderLoad hammers compiled batch scoring
// while versions are installed via every write path — UseMicro,
// LoadSnapshot, Rollback — so the race detector sees compiled reads
// concurrent with table swaps, and every response is checked to be a
// plausible score from SOME installed version.
func TestCompiledMicroHotSwapUnderLoad(t *testing.T) {
	e := New(WithWorkers(4))
	e.UseMicro(testMicroModel())

	// A second model, snapshot-loadable, with a different relevance table.
	alt := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.5, 0.5, 0.5}, Decay: 0.9})
	alt.Relevance["find cheap"] = 0.2
	alt.Relevance["rates"] = 0.95
	var artifact bytes.Buffer
	if err := alt.Save(&artifact); err != nil {
		t.Fatal(err)
	}
	artifactBytes := artifact.Bytes()

	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{ID: strconv.Itoa(i), Lines: testLines, MaxN: 3}
	}

	ctx := context.Background()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, resp := range e.ScoreBatch(ctx, reqs) {
					if resp.Err != nil {
						t.Errorf("scoring failed mid-swap: %v", resp.Err)
						return
					}
					if resp.CTR < 0 || resp.CTR > 1 || resp.ModelVersion < 1 {
						t.Errorf("implausible response under swap: %+v", resp)
						return
					}
				}
			}
		}()
	}

	for i := 0; i < 25; i++ {
		e.UseMicro(testMicroModel())
		if _, err := e.LoadSnapshot(NameMicro, bytes.NewReader(artifactBytes)); err != nil {
			t.Error(err)
			break
		}
		if _, err := e.Rollback(NameMicro); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	readers.Wait()
}

// TestPositionsArenaNoAliasing scores a macro batch and verifies each
// response's Positions is correct and disjoint from its neighbours —
// the write-once arena contract.
func TestPositionsArenaNoAliasing(t *testing.T) {
	m := clickmodel.NewPBM()
	if err := m.FitLog(mustCompile(t, clickSessions(40, 4))); err != nil {
		t.Fatal(err)
	}
	e := New(WithWorkers(2))
	installed(t, e, m.Name(), NewClickModelScorer(m))

	sessions := clickSessions(30, 4)
	reqs := make([]Request, len(sessions))
	for i := range sessions {
		reqs[i] = Request{ID: strconv.Itoa(i), Model: "pbm", Session: &sessions[i]}
	}
	resps := e.ScoreBatch(context.Background(), reqs)
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		want := m.ClickProbsInto(sessions[i], nil)
		if len(resp.Positions) != len(want) {
			t.Fatalf("resp %d: %d positions, want %d", i, len(resp.Positions), len(want))
		}
		for j := range want {
			if math.Abs(resp.Positions[j]-want[j]) > 1e-12 {
				t.Fatalf("resp %d pos %d: %v, want %v (arena aliasing?)", i, j, resp.Positions[j], want[j])
			}
		}
	}
	// Overlapping backing arrays would let one response's writes show
	// through another; prove disjointness by mutation.
	if len(resps) >= 2 && len(resps[0].Positions) > 0 {
		before := resps[1].Positions[0]
		resps[0].Positions[0] = -1
		if resps[1].Positions[0] != before {
			t.Error("Positions slices of different responses share memory")
		}
	}
}

// TestScoreCTRSteadyStateAllocs pins the per-request allocation count
// of the compiled micro path through the full engine dispatch.
func TestScoreCTRSteadyStateAllocs(t *testing.T) {
	e := New()
	e.UseMicro(testMicroModel())
	ctx := context.Background()
	req := Request{Lines: testLines, MaxN: 3}
	if _, err := e.ScoreCTR(ctx, req); err != nil { // warm pool + scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.ScoreCTR(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	// The dispatch itself is alloc-free; tolerate a couple for pool
	// internals under GC pressure.
	if allocs > 2 {
		t.Errorf("steady-state ScoreCTR allocates %v per request, want ~0", allocs)
	}
}

// TestModelCount pins the cheap healthz counter to ModelNames.
func TestModelCount(t *testing.T) {
	e := New()
	if got := e.ModelCount(); got != 0 {
		t.Fatalf("empty engine ModelCount = %d", got)
	}
	e.UseMicro(testMicroModel())
	m := clickmodel.NewPBM()
	if err := m.FitLog(mustCompile(t, clickSessions(10, 3))); err != nil {
		t.Fatal(err)
	}
	installed(t, e, m.Name(), NewClickModelScorer(m))
	installed(t, e, m.Name(), NewClickModelScorer(m)) // second version of the same name: count unchanged
	if got, want := e.ModelCount(), len(e.ModelNames()); got != want {
		t.Errorf("ModelCount = %d, ModelNames has %d", got, want)
	}
	if got := e.ModelCount(); got != 2 {
		t.Errorf("ModelCount = %d, want 2", got)
	}
}

// clickSessions builds a small deterministic session log.
func clickSessions(n, depth int) []clickmodel.Session {
	docs := []string{"a", "b", "c", "d", "e"}
	out := make([]clickmodel.Session, 0, n)
	for i := 0; i < n; i++ {
		s := clickmodel.Session{
			Query:  fmt.Sprintf("q%d", i%5),
			Docs:   make([]string, depth),
			Clicks: make([]bool, depth),
		}
		for j := 0; j < depth; j++ {
			s.Docs[j] = docs[(i+j)%len(docs)]
			s.Clicks[j] = (i+j)%3 == 0
		}
		out = append(out, s)
	}
	return out
}
