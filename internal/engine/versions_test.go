package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mmap"
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
	if _, err := e.Fit("pbm", mustCompile(t, sessions[:150]), 2); err != nil {
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
		if _, err := e.Fit("pbm", mustCompile(t, sessions[:150]), 1); err != nil {
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

// TestVersionedTableModelCheck is the checked model of what a reader may
// observe while the table changes under it: writers interleave Install,
// Rollback, pruning (WithKeepVersions(2)) and mapped-artifact loads from
// a seeded schedule while readers score a fixed request set through
// ScoreBatchInto, and every response must carry, by bits, exactly what an
// unmemoised MicroScorer over the parameters of the version named in its
// ModelVersion returns — that version having been installed before the
// response was read. A memo record outliving its version, an identity
// reused across versions or a response stamped with one version and
// scored by another all fail it.
func TestVersionedTableModelCheck(t *testing.T) {
	const (
		params   = 4 // distinct parameterisations, each as a fitted model and as a v2 file
		writers  = 2
		readers  = 3
		writeOps = 40
	)
	ctx := context.Background()

	// Every snippet four times a batch, so third and later sights — memo
	// hits — happen inside any one version's life; pinned references to
	// versions that may be pruned ride along.
	var reqs []Request
	for rep := 0; rep < 4; rep++ {
		for i, lines := range [][]string{
			testLines, {"Acme Air"}, {"Find cheap flights"}, {"flights", "flights"}, {""}, {"Great rates", "Find cheap"},
		} {
			reqs = append(reqs, Request{Lines: lines, MaxN: 1 + (i+rep/2)%3})
		}
	}

	// refs[2k] is parameterisation k compiled from the fitted model,
	// refs[2k+1] the same loaded from its v2 bytes; want[r][i] is what
	// refs[r] answers request i through the public, unmemoised path.
	type bits2 [2]uint64
	var (
		models [params]*core.Model
		paths  [params]string
		want   [2 * params][]bits2
	)
	for k := range models {
		m := testMicroModel()
		m.Relevance["flights"] = 0.2 + 0.15*float64(k)
		m.Relevance["great rates"] = 0.9 - 0.1*float64(k)
		models[k] = m
		paths[k] = writeV2File(t, fmt.Sprintf("micro%d", k), m.Save)
		blob, err := os.ReadFile(paths[k])
		if err != nil {
			t.Fatal(err)
		}
		art, err := mmap.FromBytes(blob) // kept alive by the scorer below
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.CompiledFromArtifact(art.V2Artifact)
		if err != nil {
			t.Fatal(err)
		}
		for r, s := range []Scorer{NewMicroScorer(m), NewCompiledMicroScorer(c)} {
			for _, req := range reqs {
				resp, err := s.ScoreCTR(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				want[2*k+r] = append(want[2*k+r], bits2{math.Float64bits(resp.CTR), math.Float64bits(resp.Score)})
			}
		}
	}

	e := New(WithKeepVersions(2), WithWorkers(2))
	var (
		mu        sync.RWMutex
		refOf     = map[int]int{} // version → index into want, written before mu is released
		batches   atomic.Int64
		writersWG sync.WaitGroup
		readersWG sync.WaitGroup
		done      = make(chan struct{})
	)
	install := func(k int, mapped bool) {
		mu.Lock()
		defer mu.Unlock()
		var (
			info ModelInfo
			err  error
		)
		if mapped {
			info, err = e.LoadSnapshotFile(NameMicro, paths[k])
		} else {
			info, err = e.Install(NameMicro, NewMicroScorer(models[k]), "register")
		}
		if err != nil {
			t.Errorf("install of parameterisation %d (mapped %v): %v", k, mapped, err)
			return
		}
		r := 2 * k
		if mapped {
			r++
		}
		refOf[info.Version] = r
	}
	install(0, false)

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(int64(20190408 + w)))
			for op := 0; op < writeOps; op++ {
				switch k := rng.Intn(params); rng.Intn(4) {
				case 0:
					_, _ = e.Rollback(NameMicro) // refused when the live version is the oldest kept
				case 1:
					install(k, true)
				default:
					install(k, false)
				}
				// Let the readers see the table this left before the next.
				for seen := batches.Load(); batches.Load() < seen+2 && !t.Failed(); {
					runtime.Gosched()
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			batch := append([]Request(nil), reqs...)
			var out []Response
			for {
				select {
				case <-done:
					return
				default:
				}
				out = e.ScoreBatchInto(ctx, batch, out)
				batches.Add(1)
				mu.RLock()
				for i, resp := range out {
					if resp.Err != nil {
						if batch[i].Model == "" || !errors.Is(resp.Err, ErrNoModel) {
							t.Errorf("request %d (%q): %v", i, batch[i].Model, resp.Err)
						}
						continue
					}
					ref, ok := refOf[resp.ModelVersion]
					if !ok {
						t.Errorf("request %d answered by version %d, which no install has returned", i, resp.ModelVersion)
						continue
					}
					if got := (bits2{math.Float64bits(resp.CTR), math.Float64bits(resp.Score)}); got != want[ref][i] {
						t.Errorf("request %d (%q), version %d: answered %x, that version's parameters give %x",
							i, batch[i].Model, resp.ModelVersion, got, want[ref][i])
					}
				}
				mu.RUnlock()
				if t.Failed() {
					return
				}
				// The next batch's last few requests pin the version before
				// the one this batch began on: kept, pruned or never there.
				if v := out[0].ModelVersion; v > 1 {
					for i := len(batch) - 6; i < len(batch); i++ {
						batch[i].Model = fmt.Sprintf("%s@%d", NameMicro, v-1)
					}
				}
			}
		}()
	}
	writersWG.Wait()
	close(done)
	readersWG.Wait()

	st := readMemo(e)
	if st.Hits == 0 || st.Stores == 0 {
		t.Errorf("the memo never answered during the check: %+v", st)
	}
	t.Logf("%d batches, memo %+v", batches.Load(), st)
}
