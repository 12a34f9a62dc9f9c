package server

// Generator of the parent-written surface golden under
// internal/server/testdata/parent_00e70e1. It is not part of any build:
// to regenerate, check out commit 00e70e1, copy this file into
// internal/server as zz_golden_test.go and run
//
//	GOLDEN_DIR=/abs/path go test ./internal/server -run TestWriteParentSurfaceGolden
//
// It attaches everything a server can carry — an instrumented engine, an
// online learner behind a WAL, the feedback rate limiter, the MBSP
// server and a trace ring — drives enough traffic that every run-time
// family has a series (scored micro and pbm requests, a second micro
// version so the drift family appears), and writes two files:
//
//   - metrics.golden: per /metrics family its HELP text, its TYPE and
//     every label set it exposes, one fact per line. Histogram series
//     fold into their family and drop le; the values of labels that name
//     run-time things (model, version, baseline and the build identity)
//     are written as *.
//   - healthz.golden: every /healthz key path ("serving.requests",
//     "drift[].l1") with its JSON type.
//
// surface_test.go holds the commit under test to both files.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server/binproto"
	"repro/internal/stream"
	"repro/internal/wal"
)

func TestWriteParentSurfaceGolden(t *testing.T) {
	dir := os.Getenv("GOLDEN_DIR")
	if dir == "" {
		t.Skip("GOLDEN_DIR not set")
	}
	sessions := testSessions(300)
	eng := engine.New(engine.WithWorkers(2), engine.WithObserver(&engine.Observer{}))
	if _, err := eng.Fit("pbm", sessions[:200], engine.Iterations(5)); err != nil {
		t.Fatal(err)
	}
	eng.UseMicro(testMicroModel())
	w, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	l, err := stream.New(eng, stream.Config{Models: []string{engine.NameMicro}, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewTraceRing(16, 0)
	bin := binproto.NewServer(eng, nil)
	bin.SetTracing(ring)
	ts := httptest.NewServer(New(eng, nil, WithLearner(l), WithWAL(w), WithFeedbackRateLimit(1000, 1000),
		WithTracing(ring), WithBinary(bin)))
	defer ts.Close()

	micro := engine.Request{Lines: []string{"Acme Air", "Find cheap flights to Rome"}}
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/score", micro, &engine.Response{})
		postJSON(t, ts.URL+"/v1/score", engine.Request{Model: "pbm", Session: &sessions[i]}, &engine.Response{})
	}
	eng.UseMicro(testMicroModel())
	postJSON(t, ts.URL+"/v1/score", micro, &engine.Response{})
	postJSON(t, ts.URL+"/v1/feedback", map[string]any{
		"snippet": map[string]any{"lines": []string{"cheap flights"}, "impressions": 10, "clicks": 2},
	}, &struct{}{})

	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	write := func(name, head string, lines []string) {
		body := head + strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("metrics.golden", "# /metrics at 00e70e1: family HELP text, family TYPE kind, family SERIES {labels}\n",
		goldenMetricLines(t, string(get("/metrics"))))
	write("healthz.golden", "# /healthz at 00e70e1: key path and JSON type\n",
		goldenHealthzLines(t, get("/healthz")))
}

// goldenStarred are the labels whose values name run-time things.
var goldenStarred = map[string]bool{
	"model": true, "version": true, "baseline": true,
	"go_version": true, "revision": true, "modified": true,
}

func goldenMetricLines(t *testing.T, text string) []string {
	types := map[string]string{}
	set := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
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
			key := line[:strings.LastIndexByte(line, ' ')]
			name, labels, _ := strings.Cut(key, "{")
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); base != name && types[base] == "histogram" {
					name = base
				}
			}
			if types[name] == "" {
				t.Fatalf("series %q has no TYPE before it", line)
			}
			var keep []string
			for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
				k, _, _ := strings.Cut(kv, "=")
				switch {
				case kv == "" || k == "le":
				case goldenStarred[k]:
					keep = append(keep, k+"=*")
				default:
					keep = append(keep, kv)
				}
			}
			set[name+" SERIES {"+strings.Join(keep, ",")+"}"] = true
		}
	}
	return goldenSorted(set)
}

func goldenHealthzLines(t *testing.T, body []byte) []string {
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
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
			set[fmt.Sprintf("%s %s", path, kind)] = true
		}
	}
	walk("", doc)
	return goldenSorted(set)
}

func goldenSorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
