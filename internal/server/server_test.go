package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stream"
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

// testSessions builds a deterministic synthetic log (mirrors the
// engine tests' generator).
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

// newTestServer builds an engine with a fitted PBM + micro model and
// wraps it in an httptest server.
func newTestServer(t *testing.T) (*httptest.Server, *engine.Engine, []clickmodel.Session) {
	t.Helper()
	sessions := testSessions(300)
	eng := engine.New(engine.WithWorkers(2))
	if _, err := eng.Fit("pbm", mustCompile(t, sessions[:200]), 5); err != nil {
		t.Fatal(err)
	}
	eng.UseMicro(testMicroModel())
	ts := httptest.NewServer(New(eng, nil))
	t.Cleanup(ts.Close)
	return ts, eng, sessions
}

// postJSON posts a JSON body and decodes the JSON answer into out.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s answer: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t)
	var got struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &got); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if got.Status != "ok" || got.Models != 2 {
		t.Errorf("healthz = %+v", got)
	}
}

func TestModelsEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t)
	var got struct {
		Models []engine.ModelInfo `json:"models"`
	}
	if code := getJSON(t, ts.URL+"/v1/models", &got); code != http.StatusOK {
		t.Fatalf("models status %d", code)
	}
	if len(got.Models) != 2 {
		t.Fatalf("models = %+v", got.Models)
	}
	for _, mi := range got.Models {
		if !mi.Latest || mi.Version != 1 || mi.Params <= 0 {
			t.Errorf("model metadata off the wire: %+v", mi)
		}
	}
}

func TestScoreEndpoint(t *testing.T) {
	ts, eng, sessions := newTestServer(t)

	// Macro request: the wire answer must match in-process scoring.
	s := sessions[250]
	var got engine.Response
	code := postJSON(t, ts.URL+"/v1/score", engine.Request{ID: "s1", Model: "pbm", Session: &s}, &got)
	if code != http.StatusOK {
		t.Fatalf("score status %d: %+v", code, got)
	}
	want, err := eng.ScoreCTR(t.Context(), engine.Request{Model: "pbm", Session: &s})
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "s1" || got.Model != "pbm" || got.ModelVersion != 1 {
		t.Errorf("wire response header fields: %+v", got)
	}
	if math.Abs(got.CTR-want.CTR) > 1e-12 || len(got.Positions) != len(want.Positions) {
		t.Errorf("wire CTR %v positions %v, want %v %v", got.CTR, got.Positions, want.CTR, want.Positions)
	}

	// Micro request.
	var micro engine.Response
	code = postJSON(t, ts.URL+"/v1/score",
		engine.Request{ID: "m1", Model: "micro", Lines: []string{"Acme", "Find cheap flights"}}, &micro)
	if code != http.StatusOK || micro.CTR <= 0 || micro.CTR > 1 {
		t.Errorf("micro score: %d %+v", code, micro)
	}
}

func TestScoreEndpointErrors(t *testing.T) {
	ts, _, sessions := newTestServer(t)

	// Unknown model → 404 with the failure on the wire.
	var got engine.Response
	code := postJSON(t, ts.URL+"/v1/score", engine.Request{Model: "bogus", Session: &sessions[0]}, &got)
	if code != http.StatusNotFound {
		t.Errorf("unknown model status %d", code)
	}
	if !strings.Contains(got.Error, "bogus") {
		t.Errorf("error not on the wire: %+v", got)
	}

	// Missing evidence → 422.
	code = postJSON(t, ts.URL+"/v1/score", engine.Request{Model: "pbm"}, &got)
	if code != http.StatusUnprocessableEntity || got.Error == "" {
		t.Errorf("missing evidence: %d %+v", code, got)
	}

	// Malformed body → 400.
	resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d", resp.StatusCode)
	}
}

func TestScoreBatchEndpoint(t *testing.T) {
	ts, _, sessions := newTestServer(t)
	body := struct {
		Requests []engine.Request `json:"requests"`
	}{}
	for i := 0; i < 10; i++ {
		body.Requests = append(body.Requests, engine.Request{ID: fmt.Sprint(i), Model: "pbm", Session: &sessions[200+i]})
	}
	body.Requests = append(body.Requests,
		engine.Request{ID: "micro", Lines: []string{"Find cheap flights"}},
		engine.Request{ID: "bad", Model: "ghost", Lines: []string{"x"}})

	var got struct {
		Responses []engine.Response `json:"responses"`
	}
	if code := postJSON(t, ts.URL+"/v1/score/batch", body, &got); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(got.Responses) != len(body.Requests) {
		t.Fatalf("%d responses for %d requests", len(got.Responses), len(body.Requests))
	}
	for i, r := range got.Responses[:11] {
		if r.Error != "" || r.CTR <= 0 {
			t.Errorf("resp %d: %+v", i, r)
		}
	}
	if bad := got.Responses[11]; bad.Error == "" || bad.ID != "bad" {
		t.Errorf("failed request lost its error on the wire: %+v", bad)
	}
}

// TestLoadAndRollbackEndpoints is the hot-swap e2e: fit a second model
// offline, snapshot it to disk, POST it into the serving engine, watch
// the served version change, then roll back.
func TestLoadAndRollbackEndpoints(t *testing.T) {
	ts, eng, sessions := newTestServer(t)

	// Offline fit with different hyper-parameters, snapshot to disk.
	offline := engine.New()
	if _, err := offline.Fit("pbm", mustCompile(t, sessions[:100]), 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pbm-v2.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := offline.SaveSnapshot("pbm", f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var info engine.ModelInfo
	code := postJSON(t, ts.URL+"/v1/models/pbm/load", map[string]string{"path": path}, &info)
	if code != http.StatusOK {
		t.Fatalf("load status %d: %+v", code, info)
	}
	if info.Name != "pbm" || info.Version != 2 || info.Source != "snapshot" {
		t.Fatalf("load info = %+v", info)
	}

	// Bare-name requests now serve version 2 …
	var got engine.Response
	postJSON(t, ts.URL+"/v1/score", engine.Request{Model: "pbm", Session: &sessions[250]}, &got)
	if got.ModelVersion != 2 {
		t.Errorf("served version %d after load, want 2", got.ModelVersion)
	}
	// … and must agree with the offline model exactly.
	want, err := offline.ScoreCTR(t.Context(), engine.Request{Model: "pbm", Session: &sessions[250]})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.CTR-want.CTR) > 1e-12 {
		t.Errorf("hot-swapped CTR %v, want %v", got.CTR, want.CTR)
	}

	// Rollback over HTTP.
	code = postJSON(t, ts.URL+"/v1/models/pbm/rollback", struct{}{}, &info)
	if code != http.StatusOK || info.Version != 1 || !info.Latest {
		t.Fatalf("rollback: %d %+v", code, info)
	}
	postJSON(t, ts.URL+"/v1/score", engine.Request{Model: "pbm", Session: &sessions[250]}, &got)
	if got.ModelVersion != 1 {
		t.Errorf("served version %d after rollback, want 1", got.ModelVersion)
	}
	if _, err := eng.Rollback("pbm"); err == nil {
		t.Error("engine still had versions to roll back to")
	}

	// Error paths: missing file, bad body, unknown rollback target.
	var eb struct {
		Error string `json:"error"`
	}
	code = postJSON(t, ts.URL+"/v1/models/pbm/load", map[string]string{"path": filepath.Join(t.TempDir(), "nope.bin")}, &eb)
	if code != http.StatusBadRequest || eb.Error == "" {
		t.Errorf("missing file: %d %+v", code, eb)
	}
	code = postJSON(t, ts.URL+"/v1/models/pbm/load", map[string]string{}, &eb)
	if code != http.StatusBadRequest {
		t.Errorf("empty path: %d", code)
	}
	code = postJSON(t, ts.URL+"/v1/models/ghost/rollback", struct{}{}, &eb)
	if code != http.StatusNotFound {
		t.Errorf("ghost rollback: %d", code)
	}

	// A corrupt artifact is rejected with 422 and never installed.
	bad := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(bad, []byte("garbage artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	code = postJSON(t, ts.URL+"/v1/models/pbm/load", map[string]string{"path": bad}, &eb)
	if code != http.StatusUnprocessableEntity || eb.Error == "" {
		t.Errorf("corrupt artifact: %d %+v", code, eb)
	}

	// A versioned path name ("pbm@2") is a client error, not a handler
	// panic: the connection must get a JSON error back.
	code = postJSON(t, ts.URL+"/v1/models/pbm@2/load", map[string]string{"path": path}, &eb)
	if code != http.StatusUnprocessableEntity || !strings.Contains(eb.Error, "@") {
		t.Errorf("versioned load name: %d %+v", code, eb)
	}
}

// TestLoadEndpointMapsAndVerifiesV2 is the admin load of a v2 artifact:
// a micro model is served from a mapping of the file (a stream copy
// onto the heap would not show in the process's maps), a click model is
// thawed from it and leaves nothing mapped, and because the path
// arrived over the wire its CRCs are checked first — a flipped byte
// answers 422, maps nothing and leaves the model table as it was.
func TestLoadEndpointMapsAndVerifiesV2(t *testing.T) {
	ts, eng, sessions := newTestServer(t)
	pbm := clickmodel.NewPBM()
	if err := pbm.FitLog(mustCompile(t, sessions[:100])); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := pbm.Save(&blob); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "pbm.mbs2")
	if err := os.WriteFile(path, blob.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped := func(path string) bool {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Skipf("no /proc/self/maps to see mappings in: %v", err)
		}
		return bytes.Contains(maps, []byte(path))
	}

	var info engine.ModelInfo
	if code := postJSON(t, ts.URL+"/v1/models/pbm/load", map[string]string{"path": path}, &info); code != http.StatusOK {
		t.Fatalf("load status %d: %+v", code, info)
	}
	if info.Name != "pbm" || info.Version != 2 || info.Source != "snapshot" {
		t.Fatalf("load info = %+v", info)
	}
	if mapped(path) {
		t.Errorf("%s is still mapped after the admin load: a thawed click model must let it go", path)
	}
	var micro bytes.Buffer
	if err := testMicroModel().Save(&micro); err != nil {
		t.Fatal(err)
	}
	microPath := filepath.Join(dir, "micro.mbs2")
	if err := os.WriteFile(microPath, micro.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/v1/models/micro/load", map[string]string{"path": microPath}, &info); code != http.StatusOK {
		t.Fatalf("micro load status %d: %+v", code, info)
	}
	if !mapped(microPath) {
		t.Errorf("%s is not mapped after the admin load: the artifact was copied, not mapped", microPath)
	}
	// The export of either version is the file itself.
	var out bytes.Buffer
	if err := eng.SaveSnapshot("micro", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), micro.Bytes()) {
		t.Errorf("export of the loaded micro version differs from the artifact (%d vs %d bytes)", out.Len(), micro.Len())
	}
	out.Reset()
	if err := eng.SaveSnapshot("pbm@2", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), blob.Bytes()) {
		t.Errorf("export of the loaded version differs from the artifact (%d vs %d bytes)", out.Len(), blob.Len())
	}
	var got engine.Response
	postJSON(t, ts.URL+"/v1/score", engine.Request{Model: "pbm", Session: &sessions[250]}, &got)
	want := pbm.ClickProbsInto(sessions[250], nil)
	if got.ModelVersion != 2 || len(got.Positions) != len(want) {
		t.Fatalf("served %+v, want version 2 with %d positions", got, len(want))
	}
	for i := range want {
		if math.Abs(got.Positions[i]-want[i]) > 1e-12 {
			t.Errorf("pos %d: %v, want %v", i, got.Positions[i], want[i])
		}
	}

	bad := append([]byte(nil), blob.Bytes()...)
	bad[len(bad)-2] ^= 0x01
	badPath := filepath.Join(dir, "flipped.mbs2")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after struct {
		Models []engine.ModelInfo `json:"models"`
	}
	getJSON(t, ts.URL+"/v1/models", &before)
	var eb struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/v1/models/pbm/load", map[string]string{"path": badPath}, &eb); code != http.StatusUnprocessableEntity || eb.Error == "" {
		t.Errorf("CRC-flipped artifact: %d %+v, want 422 with an error", code, eb)
	}
	getJSON(t, ts.URL+"/v1/models", &after)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("a refused load changed /v1/models:\n before %+v\n after  %+v", before, after)
	}
	if mapped(badPath) {
		t.Errorf("%s is still mapped after its load was refused", badPath)
	}
}

// newOnlineServer is newTestServer plus an attached online learner.
func newOnlineServer(t *testing.T, models ...string) (*httptest.Server, *engine.Engine, *stream.Learner, []clickmodel.Session) {
	t.Helper()
	sessions := testSessions(600)
	eng := engine.New(engine.WithWorkers(2))
	if _, err := eng.Fit("pbm", mustCompile(t, sessions[:200]), 5); err != nil {
		t.Fatal(err)
	}
	if len(models) == 0 {
		models = []string{"sdbn"}
	}
	l, err := stream.New(eng, stream.Config{Models: models, Shards: 2, QueueCap: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ts := httptest.NewServer(New(eng, nil, WithLearner(l)))
	t.Cleanup(ts.Close)
	return ts, eng, l, sessions
}

// TestFeedbackEndpoint is the serve→feedback→republish loop over the
// wire: ingest sessions, publish, and watch the new version appear in
// /v1/models and serve scoring traffic.
func TestFeedbackEndpoint(t *testing.T) {
	ts, eng, l, sessions := newOnlineServer(t)

	// Single session plus a batch, and a snippet event.
	var fb struct {
		Accepted int `json:"accepted"`
		Dropped  int `json:"dropped"`
		Invalid  int `json:"invalid"`
	}
	code := postJSON(t, ts.URL+"/v1/feedback", map[string]any{"session": sessions[200]}, &fb)
	if code != http.StatusOK || fb.Accepted != 1 {
		t.Fatalf("single session: %d %+v", code, fb)
	}
	code = postJSON(t, ts.URL+"/v1/feedback", map[string]any{
		"sessions": sessions[201:500],
		"snippet":  stream.SnippetEvent{Lines: []string{"cheap flights"}, Impressions: 50, Clicks: 9},
	}, &fb)
	if code != http.StatusOK || fb.Accepted != 300 || fb.Dropped != 0 || fb.Invalid != 0 {
		t.Fatalf("batch: %d %+v", code, fb)
	}

	// Publish and score through the new version.
	infos, err := l.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "sdbn" || infos[0].Source != engine.SourceOnline {
		t.Fatalf("published %+v", infos)
	}
	var got engine.Response
	code = postJSON(t, ts.URL+"/v1/score", engine.Request{Model: "sdbn", Session: &sessions[550]}, &got)
	if code != http.StatusOK || got.ModelVersion != 1 || got.CTR <= 0 {
		t.Fatalf("scoring the online model: %d %+v", code, got)
	}

	// /v1/models lists the online version with its provenance.
	var models struct {
		Models []engine.ModelInfo `json:"models"`
	}
	getJSON(t, ts.URL+"/v1/models", &models)
	found := false
	for _, mi := range models.Models {
		if mi.Name == "sdbn" && mi.Source == engine.SourceOnline {
			found = true
		}
	}
	if !found {
		t.Fatalf("online version missing from /v1/models: %+v", models.Models)
	}
	_ = eng
}

// TestFeedbackErrors covers the error paths of the ingest surface:
// disabled learner, malformed JSON, empty events, invalid payloads and
// oversized batches.
func TestFeedbackErrors(t *testing.T) {
	// Feedback before any learner is configured → 503.
	plain, _, _ := newTestServer(t)
	var eb struct {
		Error string `json:"error"`
	}
	code := postJSON(t, plain.URL+"/v1/feedback", map[string]any{"session": clickmodel.Session{Query: "q", Docs: []string{"a"}, Clicks: []bool{false}}}, &eb)
	if code != http.StatusServiceUnavailable || !strings.Contains(eb.Error, "-online") {
		t.Fatalf("feedback without learner: %d %+v", code, eb)
	}

	ts, _, _, _ := newOnlineServer(t)

	// Malformed JSON → 400.
	resp, err := http.Post(ts.URL+"/v1/feedback", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed feedback body: %d", resp.StatusCode)
	}

	// No events at all → 400.
	code = postJSON(t, ts.URL+"/v1/feedback", map[string]any{}, &eb)
	if code != http.StatusBadRequest {
		t.Errorf("empty feedback: %d", code)
	}

	// Invalid session → counted, 200 with invalid=1.
	var fb struct {
		Accepted int `json:"accepted"`
		Invalid  int `json:"invalid"`
	}
	code = postJSON(t, ts.URL+"/v1/feedback", map[string]any{
		"session": clickmodel.Session{Query: "q", Docs: []string{"a"}, Clicks: []bool{true, false}},
	}, &fb)
	if code != http.StatusOK || fb.Invalid != 1 || fb.Accepted != 0 {
		t.Errorf("invalid session: %d %+v", code, fb)
	}

	// Oversized batch → 413.
	big := make([]clickmodel.Session, maxBatchItems+1)
	for i := range big {
		big[i] = clickmodel.Session{Query: "q", Docs: []string{"a"}, Clicks: []bool{false}}
	}
	code = postJSON(t, ts.URL+"/v1/feedback", map[string]any{"sessions": big}, &eb)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized feedback batch: %d", code)
	}
}

// TestFeedbackBackpressure: a saturated sink answers 429 with the drop
// count on the wire.
func TestFeedbackBackpressure(t *testing.T) {
	sessions := testSessions(10)
	eng := engine.New()
	l, err := stream.New(eng, stream.Config{Models: []string{"sdbn"}, Shards: 1, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ts := httptest.NewServer(New(eng, nil, WithLearner(l)))
	t.Cleanup(ts.Close)

	var fb struct {
		Accepted int `json:"accepted"`
		Dropped  int `json:"dropped"`
	}
	code := postJSON(t, ts.URL+"/v1/feedback", map[string]any{"sessions": sessions[:4]}, &fb)
	if code != http.StatusOK || fb.Accepted != 1 || fb.Dropped != 3 {
		t.Fatalf("partial saturation: %d %+v", code, fb)
	}
	code = postJSON(t, ts.URL+"/v1/feedback", map[string]any{"sessions": sessions[4:8]}, &fb)
	if code != http.StatusTooManyRequests || fb.Accepted != 0 || fb.Dropped != 4 {
		t.Fatalf("full saturation: %d %+v", code, fb)
	}
}

// TestScoreBatchLimits: oversized score batches are rejected with 413
// and unknown pinned versions with 404.
func TestScoreBatchLimits(t *testing.T) {
	ts, _, sessions := newTestServer(t)

	big := struct {
		Requests []engine.Request `json:"requests"`
	}{Requests: make([]engine.Request, maxBatchItems+1)}
	var eb struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/v1/score/batch", big, &eb); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized score batch: %d", code)
	}

	// Unknown name@version pin → 404 with the versions explained.
	var got engine.Response
	code := postJSON(t, ts.URL+"/v1/score", engine.Request{Model: "pbm@9", Session: &sessions[0]}, &got)
	if code != http.StatusNotFound || !strings.Contains(got.Error, "no installed version 9") {
		t.Errorf("unknown version pin: %d %+v", code, got)
	}
	code = postJSON(t, ts.URL+"/v1/score", engine.Request{Model: "pbm@bogus", Session: &sessions[0]}, &got)
	if code != http.StatusNotFound || got.Error == "" {
		t.Errorf("malformed version pin: %d %+v", code, got)
	}
}

// TestSnapshotEndpoint: an online-learned model is exported to disk
// through the admin surface and loads back bit-identically.
func TestSnapshotEndpoint(t *testing.T) {
	ts, eng, l, sessions := newOnlineServer(t)
	var fb struct {
		Accepted int `json:"accepted"`
	}
	postJSON(t, ts.URL+"/v1/feedback", map[string]any{"sessions": sessions[200:500]}, &fb)
	if _, err := l.Publish(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sdbn-online.bin")
	var snap struct {
		Model string `json:"model"`
		Path  string `json:"path"`
		Bytes int64  `json:"bytes"`
	}
	code := postJSON(t, ts.URL+"/v1/models/sdbn/snapshot", map[string]string{"path": path}, &snap)
	if code != http.StatusOK || snap.Bytes <= 0 || snap.Model != "sdbn" {
		t.Fatalf("snapshot export: %d %+v", code, snap)
	}

	// Round-trip: load the artifact into a fresh engine and compare.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fresh := engine.New()
	info, err := fresh.LoadSnapshot("", f)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "sdbn" {
		t.Fatalf("artifact decoded as %+v", info)
	}
	want, err := eng.ScoreCTR(t.Context(), engine.Request{Model: "sdbn", Session: &sessions[550]})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.ScoreCTR(t.Context(), engine.Request{Model: "sdbn", Session: &sessions[550]})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.CTR-want.CTR) > 1e-12 {
		t.Fatalf("round-tripped CTR %v, want %v", got.CTR, want.CTR)
	}

	// Error paths: missing path, unknown model, unwritable destination.
	var eb struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/v1/models/sdbn/snapshot", map[string]string{}, &eb); code != http.StatusBadRequest {
		t.Errorf("empty snapshot path: %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/models/ghost/snapshot", map[string]string{"path": path}, &eb); code != http.StatusNotFound {
		t.Errorf("unknown model snapshot: %d %+v", code, eb)
	}
	bad := filepath.Join(t.TempDir(), "no", "dir", "x.bin")
	if code := postJSON(t, ts.URL+"/v1/models/sdbn/snapshot", map[string]string{"path": bad}, &eb); code != http.StatusUnprocessableEntity {
		t.Errorf("unwritable snapshot destination: %d %+v", code, eb)
	}
}

// TestHealthzCounters: the counter block reflects traffic, including
// the stream section when a learner is attached.
func TestHealthzCounters(t *testing.T) {
	ts, _, _, sessions := newOnlineServer(t)

	var fb struct{}
	postJSON(t, ts.URL+"/v1/feedback", map[string]any{"sessions": sessions[200:210]}, &fb)
	var sc engine.Response
	postJSON(t, ts.URL+"/v1/score", engine.Request{Model: "pbm", Session: &sessions[0]}, &sc)
	var br struct{}
	postJSON(t, ts.URL+"/v1/score/batch", map[string]any{"requests": []engine.Request{{Model: "pbm", Session: &sessions[1]}}}, &br)

	var got struct {
		Status  string             `json:"status"`
		Models  int                `json:"models"`
		Serving map[string]float64 `json:"serving"`
		Stream  map[string]float64 `json:"stream"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &got); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if got.Status != "ok" || got.Models != 1 {
		t.Errorf("healthz header: %+v", got)
	}
	// requests counts completed requests: the three above, not the
	// /healthz that is reading it.
	s := got.Serving
	if s["scores"] != 1 || s["batches"] != 1 || s["batch_requests"] != 1 || s["feedbacks"] != 1 || s["feedback_events"] != 10 || s["requests"] != 3 {
		t.Errorf("serving counters: %v", s)
	}
	if got.Stream["accepted"] != 10 {
		t.Errorf("stream counters: %v", got.Stream)
	}

	// Without a learner the stream block is absent.
	plain, _, _ := newTestServer(t)
	raw, err := http.Get(plain.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	var generic map[string]any
	if err := json.NewDecoder(raw.Body).Decode(&generic); err != nil {
		t.Fatal(err)
	}
	if _, ok := generic["stream"]; ok {
		t.Errorf("stream counters leaked without a learner: %v", generic)
	}
}

// TestSnapshotExportGet covers the replica-sync surface: GET export
// with ETag (the resolved name@version), Content-Length, and
// If-None-Match → 304 until the served version moves.
func TestSnapshotExportGet(t *testing.T) {
	ts, eng, _ := newTestServer(t)

	resp, err := http.Get(ts.URL + "/v1/models/pbm/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET snapshot: %d (%s)", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")
	if etag != `"pbm@1"` {
		t.Fatalf("ETag = %q, want %q", etag, `"pbm@1"`)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %q, body is %d bytes", cl, len(body))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// The exported bytes are a loadable artifact.
	e2 := engine.New()
	if _, err := e2.LoadSnapshot("", bytes.NewReader(body)); err != nil {
		t.Fatalf("exported artifact does not load: %v", err)
	}

	// Conditional poll: unchanged version → 304 with no body.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/models/pbm/snapshot", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: %d, want 304", resp2.StatusCode)
	}
	if len(b2) != 0 {
		t.Fatalf("304 carried %d body bytes", len(b2))
	}
	if resp2.Header.Get("ETag") != etag {
		t.Fatalf("304 ETag = %q, want %q", resp2.Header.Get("ETag"), etag)
	}

	// Install a new version: the same conditional poll now gets fresh
	// bytes and a new tag.
	if _, err := eng.Fit("pbm", mustCompile(t, testSessions(100)), 3); err != nil {
		t.Fatal(err)
	}
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-swap conditional GET: %d, want 200", resp3.StatusCode)
	}
	if got := resp3.Header.Get("ETag"); got != `"pbm@2"` {
		t.Fatalf("post-swap ETag = %q, want %q", got, `"pbm@2"`)
	}

	// Unknown model → 404.
	resp4, err := http.Get(ts.URL + "/v1/models/bogus/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp4.Body)
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model GET: %d, want 404", resp4.StatusCode)
	}

	// Version-pinned export stays addressable after the swap.
	resp5, err := http.Get(ts.URL + "/v1/models/pbm@1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp5.Body)
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusOK || resp5.Header.Get("ETag") != `"pbm@1"` {
		t.Fatalf("pinned export: %d / ETag %q", resp5.StatusCode, resp5.Header.Get("ETag"))
	}
}

func TestMatchesETag(t *testing.T) {
	cases := []struct {
		header, etag string
		want         bool
	}{
		{"", `"a@1"`, false},
		{`"a@1"`, `"a@1"`, true},
		{`"a@2"`, `"a@1"`, false},
		{"*", `"a@1"`, true},
		{`"x", "a@1"`, `"a@1"`, true},
		{`W/"a@1"`, `"a@1"`, true},
	}
	for _, c := range cases {
		if got := matchesETag(c.header, c.etag); got != c.want {
			t.Errorf("matchesETag(%q, %q) = %v, want %v", c.header, c.etag, got, c.want)
		}
	}
}
