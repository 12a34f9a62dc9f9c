package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// constScorer answers every request with a fixed CTR — version plumbing
// is visible through the score.
type constScorer float64

func (c constScorer) ScoreCTR(ctx context.Context, req Request) (Response, error) {
	return Response{CTR: float64(c)}, nil
}

func TestVersionAddressing(t *testing.T) {
	e := New()
	ctx := context.Background()
	installed(t, e, "m", constScorer(0.1))
	installed(t, e, "m", constScorer(0.2))
	installed(t, e, "m", constScorer(0.3))

	cases := map[string]float64{"m": 0.3, "m@1": 0.1, "m@2": 0.2, "m@3": 0.3, "M@2 ": 0.2}
	for ref, want := range cases {
		resp, err := e.ScoreCTR(ctx, Request{Model: ref})
		if err != nil {
			t.Fatalf("%q: %v", ref, err)
		}
		if resp.CTR != want {
			t.Errorf("%q: CTR %v, want %v", ref, resp.CTR, want)
		}
		if resp.Model != "m" {
			t.Errorf("%q: Model = %q", ref, resp.Model)
		}
	}
	// The serving version is stamped on responses.
	resp, _ := e.ScoreCTR(ctx, Request{Model: "m"})
	if resp.ModelVersion != 3 {
		t.Errorf("latest ModelVersion = %d, want 3", resp.ModelVersion)
	}
	resp, _ = e.ScoreCTR(ctx, Request{Model: "m@1"})
	if resp.ModelVersion != 1 {
		t.Errorf("pinned ModelVersion = %d, want 1", resp.ModelVersion)
	}

	// Unknown versions and malformed references fail loudly.
	if _, err := e.ScoreCTR(ctx, Request{Model: "m@9"}); err == nil || !strings.Contains(err.Error(), "no installed version 9") {
		t.Errorf("m@9: %v", err)
	}
	for _, bad := range []string{"m@", "m@x", "m@0", "m@-1", "@2"} {
		if _, err := e.ScoreCTR(ctx, Request{Model: bad}); err == nil {
			t.Errorf("%q resolved cleanly", bad)
		}
	}
}

func TestRollback(t *testing.T) {
	e := New()
	ctx := context.Background()
	installed(t, e, "m", constScorer(0.1))
	installed(t, e, "m", constScorer(0.2))

	info, err := e.Rollback("m")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || !info.Latest {
		t.Fatalf("rollback info = %+v", info)
	}
	if resp, _ := e.ScoreCTR(ctx, Request{Model: "m"}); resp.CTR != 0.1 || resp.ModelVersion != 1 {
		t.Errorf("after rollback: CTR %v v%d, want 0.1 v1", resp.CTR, resp.ModelVersion)
	}
	// The rolled-back version stays addressable.
	if resp, _ := e.ScoreCTR(ctx, Request{Model: "m@2"}); resp.CTR != 0.2 {
		t.Errorf("m@2 after rollback: %v", resp.CTR)
	}
	// No further version to roll back to.
	if _, err := e.Rollback("m"); err == nil {
		t.Error("second rollback succeeded with no earlier version")
	}
	if _, err := e.Rollback("ghost"); err == nil {
		t.Error("rollback of unknown model succeeded")
	}
	// A new install after rollback continues the version counter.
	info = installed(t, e, "m", constScorer(0.5))
	if info.Version != 3 {
		t.Errorf("post-rollback install got version %d, want 3", info.Version)
	}
	if resp, _ := e.ScoreCTR(ctx, Request{Model: "m"}); resp.CTR != 0.5 {
		t.Errorf("latest after re-install: %v", resp.CTR)
	}
}

func TestKeepVersionsPruning(t *testing.T) {
	e := New(WithKeepVersions(2))
	for i := 1; i <= 5; i++ {
		installed(t, e, "m", constScorer(float64(i)/10))
	}
	infos := e.Models()
	if len(infos) != 2 {
		t.Fatalf("kept %d versions, want 2: %v", len(infos), infos)
	}
	if infos[0].Version != 4 || infos[1].Version != 5 {
		t.Errorf("kept versions %d/%d, want 4/5", infos[0].Version, infos[1].Version)
	}
	if _, err := e.ScoreCTR(context.Background(), Request{Model: "m@1"}); err == nil {
		t.Error("pruned version still resolvable")
	}
}

func TestSaveSnapshotUnknownRef(t *testing.T) {
	e := New()
	if err := e.SaveSnapshot("ghost", &bytes.Buffer{}); err == nil {
		t.Fatal("saved an unknown model")
	}
	installed(t, e, "custom", constScorer(0.5))
	if err := e.SaveSnapshot("custom", &bytes.Buffer{}); err == nil {
		t.Fatal("saved a non-serializable scorer")
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	e := New()
	if _, err := e.LoadSnapshot("x", strings.NewReader("not an artifact")); err == nil {
		t.Fatal("garbage artifact loaded")
	}
}

// TestDefaultModelMayPinVersion: WithDefaultModel("m@1") must serve
// version 1 for bare requests.
func TestDefaultModelMayPinVersion(t *testing.T) {
	e := New(WithDefaultModel("m@1"))
	installed(t, e, "m", constScorer(0.1))
	installed(t, e, "m", constScorer(0.2))
	resp, err := e.ScoreCTR(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CTR != 0.1 || resp.ModelVersion != 1 || resp.Model != "m" {
		t.Errorf("pinned default served %+v", resp)
	}
}

// TestHotSwapUnderLoad is the -race e2e of the atomic table: scoring
// goroutines hammer ScoreBatch while a writer continuously refits,
// snapshots, hot-swaps and rolls back the same model name. Every
// response must come from some complete installed version.
func TestHotSwapUnderLoad(t *testing.T) {
	sessions := testSessions(300)
	e := New(WithWorkers(4))
	if _, err := e.Fit("pbm", sessions[:150], Iterations(2)); err != nil {
		t.Fatal(err)
	}
	var artifact bytes.Buffer
	if err := e.SaveSnapshot("pbm", &artifact); err != nil {
		t.Fatal(err)
	}

	reqs := make([]Request, 40)
	for i := range reqs {
		reqs[i] = Request{ID: fmt.Sprint(i), Model: "pbm", Session: &sessions[150+i%100]}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for i, resp := range e.ScoreBatch(context.Background(), reqs) {
					if resp.Err != nil {
						t.Errorf("req %d: %v", i, resp.Err)
						return
					}
					if resp.ModelVersion < 1 {
						t.Errorf("req %d: served by version %d", i, resp.ModelVersion)
						return
					}
				}
			}
		}()
	}

	for k := 0; k < 15; k++ {
		if _, err := e.Fit("pbm", sessions[:150], Iterations(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.LoadSnapshot("pbm", bytes.NewReader(artifact.Bytes())); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Rollback("pbm"); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// TestResponseErrorJSON pins the wire behaviour the Error field exists
// for: a failed response must not serialize its failure as "{}".
func TestResponseErrorJSON(t *testing.T) {
	e := New()
	resp, err := e.ScoreCTR(context.Background(), Request{ID: "r", Model: "ghost", Lines: testLines})
	if err == nil {
		t.Fatal("unknown model scored")
	}
	raw, jerr := json.Marshal(resp)
	if jerr != nil {
		t.Fatal(jerr)
	}
	var decoded struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Error == "" || !strings.Contains(decoded.Error, "ghost") {
		t.Fatalf("error lost on the wire: %s", raw)
	}
	// And a successful response has no error key at all.
	e.UseMicro(testMicroModel())
	ok, _ := e.ScoreCTR(context.Background(), Request{Lines: testLines})
	raw, _ = json.Marshal(ok)
	if bytes.Contains(raw, []byte(`"error"`)) {
		t.Fatalf("success carries an error key: %s", raw)
	}
}

// TestModelInfoRef covers the name@version formatting used by logs and
// the serving admin surface.
func TestModelInfoRef(t *testing.T) {
	mi := ModelInfo{Name: "pbm", Version: 7}
	if got := mi.Ref(); got != "pbm@7" {
		t.Errorf("Ref() = %q", got)
	}
}
