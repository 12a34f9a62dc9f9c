package engine

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// fixedScorer predicts one constant CTR — a point-mass distribution,
// which makes drift distances exact in tests.
type fixedScorer struct{ ctr float64 }

func (f fixedScorer) ScoreCTR(_ context.Context, req Request) (Response, error) {
	return Response{CTR: f.ctr}, nil
}

func scoreN(t *testing.T, e *Engine, model string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := e.ScoreCTR(context.Background(), Request{Model: model, Lines: testLines}); err != nil {
			t.Fatalf("ScoreCTR: %v", err)
		}
	}
}

// predictedCTR is the engine list's per-version predicted-CTR family,
// nil when the list does not declare one.
func predictedCTR(e *Engine) []obs.Series {
	for _, m := range e.Metrics() {
		if m.Name == "microserve_model_predicted_ctr" {
			return m.Series()
		}
	}
	return nil
}

func TestDriftBaselinePinnedAtPublish(t *testing.T) {
	e := New(WithObserver(&Observer{}))

	// v1 serves and accumulates a live distribution; nothing to drift
	// against yet.
	installed(t, e, "m", fixedScorer{ctr: 0.01})
	scoreN(t, e, "m", 100)
	if d := e.Drift(); len(d) != 0 {
		t.Fatalf("v1 has no predecessor, want empty drift, got %+v", d)
	}

	// v2 predicts identically: live distribution matches the pinned
	// baseline, L1 ~ 0.
	installed(t, e, "m", fixedScorer{ctr: 0.01})
	scoreN(t, e, "m", 100)
	d := e.Drift()
	if len(d) != 1 {
		t.Fatalf("want 1 drift entry, got %+v", d)
	}
	if d[0].Model != "m" || d[0].Version != 2 || d[0].BaselineVersion != 1 {
		t.Fatalf("wrong identity: %+v", d[0])
	}
	if d[0].L1 != 0 {
		t.Fatalf("identical distributions, L1 = %v, want 0", d[0].L1)
	}
	if d[0].LiveSamples != 100 || d[0].BaselineSamples != 100 {
		t.Fatalf("sample counts: %+v", d[0])
	}

	// v3 predicts a disjoint CTR decade: maximal drift against the
	// distribution pinned from v2.
	installed(t, e, "m", fixedScorer{ctr: 0.5})
	scoreN(t, e, "m", 100)
	d = e.Drift()
	if len(d) != 1 || d[0].Version != 3 || d[0].BaselineVersion != 2 {
		t.Fatalf("after v3: %+v", d)
	}
	if d[0].L1 < 1.9 {
		t.Fatalf("disjoint distributions, L1 = %v, want ~2", d[0].L1)
	}
}

func TestDriftRequiresObserver(t *testing.T) {
	e := New()
	installed(t, e, "m", fixedScorer{ctr: 0.1})
	installed(t, e, "m", fixedScorer{ctr: 0.9})
	scoreN(t, e, "m", 10)
	if d := e.Drift(); len(d) != 0 {
		t.Fatalf("uninstrumented engine reports drift: %+v", d)
	}
	if cd := predictedCTR(e); len(cd) != 0 {
		t.Fatalf("uninstrumented engine reports CTR distributions: %+v", cd)
	}
}

func TestDriftSurvivesRollback(t *testing.T) {
	e := New(WithObserver(&Observer{}))
	installed(t, e, "m", fixedScorer{ctr: 0.01})
	scoreN(t, e, "m", 50)
	installed(t, e, "m", fixedScorer{ctr: 0.5})
	scoreN(t, e, "m", 50)

	// Rolling back serves v1 again, which has no baseline — the drift
	// block empties rather than comparing a version against itself.
	if _, err := e.Rollback("m"); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if d := e.Drift(); len(d) != 0 {
		t.Fatalf("rolled-back v1 has no baseline, got %+v", d)
	}
	cd := predictedCTR(e)
	if len(cd) != 1 || cd[0].Labels != `model="m",version="1"` || cd[0].Snap.Count != 50 {
		t.Fatalf("serving distribution after rollback: %+v", cd)
	}
}

func TestObserverStageHistograms(t *testing.T) {
	o := &Observer{}
	e := New(WithObserver(o))
	e.UseMicro(testMicroModel())

	reqs := make([]Request, 100)
	for i := range reqs {
		reqs[i] = Request{Lines: testLines, MaxN: 3}
	}
	e.ScoreBatch(context.Background(), reqs)
	if o.Batch.Count() != 1 {
		t.Fatalf("batch histogram count = %d, want 1", o.Batch.Count())
	}
	if o.Resolve.Count() == 0 {
		t.Fatal("resolve histogram recorded nothing")
	}

	if _, _, err := e.ScoreCandidates(context.Background(), "", [][]string{testLines}, 2, nil); err != nil {
		t.Fatalf("ScoreCandidates: %v", err)
	}
	if o.Candidates.Count() != 1 {
		t.Fatalf("candidates histogram count = %d, want 1", o.Candidates.Count())
	}

	// Stage histograms expose cleanly (sanity of the /metrics wiring).
	var snaps []obs.Snapshot
	for _, h := range []*obs.Histogram{&o.Batch, &o.Score, &o.Resolve, &o.Candidates} {
		snaps = append(snaps, h.Snapshot())
	}
	if snaps[0].Count == 0 {
		t.Fatal("batch snapshot empty")
	}
}
