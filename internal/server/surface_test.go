package server

// The lists are the coverage. scriptedRun attaches everything a server
// can carry and drives each path that bumps a counter — score, batch,
// optimize, feedback (accepted, dropped, invalid, rate-limited), a
// publish that fails and ones that install, a skipped publisher tick,
// snapshot export, load and rollback, a 4xx, an MBSP frame and a broken
// one, WAL replay over a corrupt record and a torn tail, a pruned
// segment and an append to a closed log, and a snippet memo whose ring
// comes round — so that every counter any attached list declares must
// read above zero afterwards. The same run feeds the exposition's
// strictness check and the comparison with the surface the parent
// commit served (testdata/parent_00e70e1, written by the generator
// beside it).

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clickmodel"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server/binproto"
	"repro/internal/stream"
	"repro/internal/wal"
)

// seedWAL leaves a log directory whose recovery has something to do:
// a sealed segment of two sessions whose second frame fails its CRC,
// and a newest segment of one session followed by a torn frame.
func seedWAL(t *testing.T, dir string, sessions []clickmodel.Session) {
	t.Helper()
	for _, n := range []int{2, 1} {
		w, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := w.Append(wal.Record{Session: &sessions[i]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("seeded segments %v (%v), want 2", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // the last payload byte of the sealed segment's second frame
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segs[1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// scriptedRun builds the fully attached server and drives the script.
// It leaves the learner's loop stopped and the WAL closed, so nothing
// moves behind a reader's back.
func scriptedRun(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	sessions := testSessions(300)
	dir := t.TempDir()
	seedWAL(t, dir, sessions)

	eng := engine.New(engine.WithWorkers(2), engine.WithObserver(&engine.Observer{}))
	if _, err := eng.Fit("pbm", mustCompile(t, sessions[:200]), 5); err != nil {
		t.Fatal(err)
	}
	eng.UseMicro(testMicroModel())
	w, err := wal.Open(dir, wal.Options{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	l, err := stream.New(eng, stream.Config{Models: []string{"sdbn", engine.NameMicro}, Shards: 1, QueueCap: 2,
		Interval: 20 * time.Millisecond, MinEvents: math.MaxInt32, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ring := obs.NewTraceRing(16, 0)
	bin := binproto.NewServer(eng, nil)
	bin.SetTracing(ring)
	srv := New(eng, nil, WithLearner(l), WithWAL(w), WithFeedbackRateLimit(1000, 50),
		WithTracing(ring), WithBinary(bin))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	expect := func(what string, code, want int) {
		t.Helper()
		if code != want {
			t.Fatalf("%s: status %d, want %d", what, code, want)
		}
	}
	feedback := func(client string, body any) int {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/feedback", strings.NewReader(string(raw)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	micro := engine.Request{Lines: []string{"Acme Air", "Find cheap flights to Rome"}, MaxN: 3}

	// Reads: three sights of one snippet (a marker, a store, a hit), a
	// session, a batch, an optimize call and one malformed body.
	for i := 0; i < 3; i++ {
		expect("score micro", postJSON(t, ts.URL+"/v1/score", micro, &engine.Response{}), http.StatusOK)
	}
	expect("score pbm", postJSON(t, ts.URL+"/v1/score", engine.Request{Model: "pbm", Session: &sessions[3]}, &engine.Response{}), http.StatusOK)
	expect("batch", postJSON(t, ts.URL+"/v1/score/batch", map[string]any{"requests": []engine.Request{micro, micro}}, &struct{}{}), http.StatusOK)
	expect("optimize", postJSON(t, ts.URL+"/v1/optimize", optimizeRequest{Lines: micro.Lines,
		Candidates: [][]string{{"Acme Air", "flights"}, {"find cheap", "Rome"}}, MaxN: 3}, &struct{}{}), http.StatusOK)
	expect("bad body", postJSON(t, ts.URL+"/v1/score", "not a request", &struct{}{}), http.StatusBadRequest)

	// Writes: with the loop not started, a shard holding QueueCap events
	// drops the third; the first publish fits sdbn but has no snippet
	// evidence for micro; the second installs both, micro's version over
	// a predecessor that has scored, so the drift family appears.
	expect("feedback", feedback("a", map[string]any{"sessions": sessions[4:7]}), http.StatusOK)
	if _, err := l.Publish(); err == nil {
		t.Fatal("micro published with no snippet feedback")
	}
	expect("snippet feedback", feedback("a", map[string]any{"snippets": []stream.SnippetEvent{
		{Lines: []string{"cheap flights"}, Impressions: 10, Clicks: 2},
		{Lines: []string{"no impressions"}},
	}}), http.StatusOK)
	if _, err := l.Publish(); err != nil {
		t.Fatal(err)
	}
	expect("score micro v2", postJSON(t, ts.URL+"/v1/score", micro, &engine.Response{}), http.StatusOK)
	expect("rate-limited feedback", feedback("noisy", map[string]any{"sessions": sessions[:60]}), http.StatusTooManyRequests)

	// Admin: export pbm, load the export as pbm v2, roll back to v1.
	path := filepath.Join(t.TempDir(), "pbm.bin")
	expect("snapshot", postJSON(t, ts.URL+"/v1/models/pbm/snapshot", map[string]string{"path": path}, &struct{}{}), http.StatusOK)
	expect("load", postJSON(t, ts.URL+"/v1/models/pbm/load", map[string]string{"path": path}, &struct{}{}), http.StatusOK)
	expect("rollback", postJSON(t, ts.URL+"/v1/models/pbm/rollback", nil, &struct{}{}), http.StatusOK)

	// MBSP: one frame scored, then a header that is not one.
	client, conn := net.Pipe()
	go bin.ServeConn(context.Background(), conn)
	if _, err := binproto.NewClient(client).ScoreBatch([]engine.Request{micro}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(make([]byte, binproto.HeaderSize)); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, client) // the error frame, then the close
	client.Close()

	// The memo: more distinct snippets than its ring holds, seen three
	// times — the third sight of the oldest finds its record gone unused.
	long := make([]engine.Request, 1600)
	for i := range long {
		long[i] = engine.Request{Lines: []string{strconv.Itoa(i) + strings.Repeat(" cheap flights to rome", 90)}}
	}
	for pass := 0; pass < 3; pass++ {
		eng.ScoreBatch(context.Background(), long)
	}

	// The WAL: a rotation under a 1-byte budget prunes every sealed
	// segment; the loop's tick skips for want of events; once the log is
	// closed an accepted event's append fails.
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	l.Start()
	for deadline := time.Now().Add(10 * time.Second); l.Metrics().Read()["stream.publish_skips"] == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the publisher never skipped a tick")
		}
		time.Sleep(5 * time.Millisecond)
	}
	l.Close() // nothing folds from here on: the two surfaces read one state
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	expect("feedback after the WAL closed", feedback("a", map[string]any{"session": sessions[8]}), http.StatusOK)
	return srv, ts
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return b
}

// TestEveryCounterMoves: after the script, every counter in every list
// the server renders reads above zero — a counter no path bumps is a
// signal nobody can trust.
func TestEveryCounterMoves(t *testing.T) {
	srv, _ := scriptedRun(t)
	var blocks []string
	for _, m := range srv.signals {
		if m.Kind != obs.KindCounter {
			continue
		}
		if !slices.Contains(blocks, m.Block) {
			blocks = append(blocks, m.Block)
		}
		if v := m.Value(); v <= 0 {
			t.Errorf("%s (%s.%s) reads %v after the scripted run", m.Name, m.Block, m.Key, v)
		}
	}
	if want := []string{"serving", "memo", "stream", "wal", "ratelimit", "mbsp"}; !slices.Equal(blocks, want) {
		t.Fatalf("counters of %v attached, want every subsystem: %v", blocks, want)
	}
}

// TestExpositionStrict parses /metrics after the script the strict way:
// exactly one HELP and one TYPE per family, TYPE right after HELP and
// before the family's series, every series under its own family's TYPE,
// no series key twice — and every counter or gauge a list declares is on
// both /metrics and /healthz, with one value.
func TestExpositionStrict(t *testing.T) {
	srv, ts := scriptedRun(t)
	text := string(getBody(t, ts.URL+"/metrics"))
	var healthz map[string]any
	if err := json.Unmarshal(getBody(t, ts.URL+"/healthz"), &healthz); err != nil {
		t.Fatal(err)
	}

	helps, types := map[string]bool{}, map[string]string{}
	series := map[string]float64{}
	var family, pendingHelp string
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, _, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if helps[name] {
				t.Errorf("second HELP for %s", name)
			}
			helps[name], pendingHelp = true, name
		case strings.HasPrefix(line, "# TYPE "):
			name, kind, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			if _, dup := types[name]; dup {
				t.Errorf("second TYPE for %s", name)
			}
			if pendingHelp != name {
				t.Errorf("TYPE %s does not follow its HELP (last HELP %q)", name, pendingHelp)
			}
			types[name], family, pendingHelp = kind, name, ""
		case strings.HasPrefix(line, "#") || line == "":
			t.Errorf("unexpected line %q", line)
		default:
			i := strings.LastIndexByte(line, ' ')
			key := line[:i]
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Errorf("series %q: %v", line, err)
			}
			name, _, _ := strings.Cut(key, "{")
			if types[family] == "histogram" {
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					if base := strings.TrimSuffix(name, suffix); base != name {
						name = base
						break
					}
				}
			}
			if name != family {
				t.Errorf("series %q sits under the TYPE of %s", key, family)
			}
			if _, dup := series[key]; dup {
				t.Errorf("series key %q twice", key)
			}
			series[key] = v
		}
	}
	if len(helps) != len(types) {
		t.Errorf("%d HELP lines for %d TYPE lines", len(helps), len(types))
	}

	for _, m := range srv.signals {
		if m.Value == nil {
			continue
		}
		key := m.Name
		if m.Labels != "" {
			key += "{" + m.Labels + "}"
		}
		got, onMetrics := series[key]
		var onHealthz any = healthz[m.Key]
		if m.Block != "" {
			block, _ := healthz[m.Block].(map[string]any)
			onHealthz = block[m.Key]
		}
		want, ok := onHealthz.(float64)
		if !onMetrics || !ok {
			t.Errorf("%s is on /metrics %v and on /healthz as %s.%s %v", m.Name, onMetrics, m.Block, m.Key, ok)
			continue
		}
		if m.Key == "uptime_seconds" || m.Key == "requests" {
			continue // they move between the two scrapes
		}
		scale := m.Scale
		if scale == 0 {
			scale = 1
		}
		if math.Abs(got-want*scale) > 1e-9*math.Max(1, math.Abs(got)) {
			t.Errorf("%s reads %v on /metrics, %v (scale %v) on /healthz", m.Name, got, want, scale)
		}
	}
}

// surfaceStarred are the labels whose values name run-time things; the
// golden holds their names only.
var surfaceStarred = map[string]bool{
	"model": true, "version": true, "baseline": true,
	"go_version": true, "revision": true, "modified": true,
}

// surfaceLines reduces a /metrics document and a /healthz document to
// the golden's facts: per family "name HELP text", "name TYPE kind" and
// "name SERIES {labels}" (le dropped, run-time values starred), and per
// /healthz key path "path type".
func surfaceLines(t *testing.T, metrics string, healthz []byte) map[string]bool {
	t.Helper()
	set := map[string]bool{}
	types := map[string]string{}
	for _, line := range strings.Split(metrics, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			name, help, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			set[name+" HELP "+help] = true
		case strings.HasPrefix(line, "# TYPE "):
			name, kind, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			types[name] = kind
			set[name+" TYPE "+kind] = true
		default:
			name, labels, _ := strings.Cut(line[:strings.LastIndexByte(line, ' ')], "{")
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); base != name && types[base] == "histogram" {
					name = base
				}
			}
			var keep []string
			for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
				k, _, _ := strings.Cut(kv, "=")
				switch {
				case kv == "" || k == "le":
				case surfaceStarred[k]:
					keep = append(keep, k+"=*")
				default:
					keep = append(keep, kv)
				}
			}
			set[name+" SERIES {"+strings.Join(keep, ",")+"}"] = true
		}
	}
	var doc any
	if err := json.Unmarshal(healthz, &doc); err != nil {
		t.Fatal(err)
	}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		kind := "null"
		switch v := v.(type) {
		case map[string]any:
			kind = "object"
			for k, e := range v {
				walk(strings.TrimPrefix(path+"."+k, "."), e)
			}
		case []any:
			kind = "array"
			for _, e := range v {
				walk(path+"[]", e)
			}
		case string:
			kind = "string"
		case float64:
			kind = "number"
		case bool:
			kind = "bool"
		}
		if path != "" {
			set[path+" "+kind] = true
		}
	}
	walk("", doc)
	return set
}

// TestSurfaceMatchesParentGolden: every /metrics family (HELP, TYPE,
// label sets) and every /healthz key path (with its JSON type) the
// parent commit served is still served, spelled the same. benchmark/
// scrape.go, scripts/serve_smoke.sh and operators read these. The
// differences are exactly the ones made on purpose: two corrected help
// texts, the memo's overwritten count and the limiter's policy on
// /metrics, and the mbsp block on /healthz.
func TestSurfaceMatchesParentGolden(t *testing.T) {
	_, ts := scriptedRun(t)
	golden := map[string]bool{}
	for _, name := range []string{"metrics.golden", "healthz.golden"} {
		b, err := os.ReadFile(filepath.Join("testdata", "parent_00e70e1", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				golden[line] = true
			}
		}
	}
	now := surfaceLines(t, string(getBody(t, ts.URL+"/metrics")), getBody(t, ts.URL+"/healthz"))

	gone := []string{
		"microserve_http_errors_total HELP Non-2xx responses written.",
		"microserve_http_requests_total HELP HTTP requests routed.",
	}
	added := []string{
		"microserve_http_errors_total HELP 4xx and 5xx responses written by a route handler (not the mux's 404/405, not 304).",
		"microserve_http_requests_total HELP HTTP requests completed (the sum of the per-route duration counts).",
		"mbsp object", "mbsp.errors number", "mbsp.frames number", "mbsp.requests number",
	}
	for _, family := range []struct{ name, kind, help string }{
		{"microserve_engine_memo_overwritten_total", "counter", "Snippet memo records that left (the ring came round, the index slot was reused) before answering any request."},
		{"microserve_ratelimit_rate", "gauge", "Configured sustained feedback events per second per client."},
		{"microserve_ratelimit_burst", "gauge", "Configured token-bucket depth per client, in events."},
	} {
		added = append(added, family.name+" HELP "+family.help, family.name+" TYPE "+family.kind, family.name+" SERIES {}")
	}
	for line := range golden {
		if !now[line] && !slices.Contains(gone, line) {
			t.Errorf("the parent served %q; this commit does not", line)
		}
	}
	for line := range now {
		if !golden[line] && !slices.Contains(added, line) {
			t.Errorf("%q is new and not one of the additions", line)
		}
	}
	for _, line := range append(added, gone...) {
		if now[line] == slices.Contains(gone, line) {
			t.Errorf("deliberate difference %q did not happen", line)
		}
	}
}
