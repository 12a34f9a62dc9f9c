package server

import (
	"context"
	"math"
	"net"
	"net/http"
	"testing"

	"repro/internal/engine"
	"repro/internal/server/binproto"
)

func TestOptimizeEndpointExplicitCandidates(t *testing.T) {
	ts, eng, _ := newTestServer(t)
	base := []string{"find cheap flights", "to rome", "book today"}
	cands := [][]string{
		{"find cheap flights", "to rome", "flights today"},
		{"plain words", "to rome", "book today"},
		{"find cheap flights to rome", "flights", "book today"},
		{"find cheap flights", "to rome", "book today"}, // duplicate of base
	}
	var got optimizeResponse
	code := postJSON(t, ts.URL+"/v1/optimize", optimizeRequest{
		ID: "r1", Model: engine.NameMicro, Query: "cheap flights",
		Lines: base, Candidates: cands, MaxN: 3,
	}, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, got)
	}
	if got.ID != "r1" || got.Query != "cheap flights" || got.Model != engine.NameMicro {
		t.Errorf("echo fields: %+v", got)
	}
	if got.Base.Index != -1 {
		t.Errorf("base index %d, want -1", got.Base.Index)
	}
	if got.Generated != 0 {
		t.Errorf("explicit candidates reported %d generated", got.Generated)
	}
	if len(got.Candidates) != len(cands) {
		t.Fatalf("%d candidates ranked as %d", len(cands), len(got.Candidates))
	}

	// Every reported CTR must match the single-request scoring path.
	want := make([]float64, len(cands))
	for i, lines := range cands {
		resp, err := eng.ScoreCTR(nil, engine.Request{Model: engine.NameMicro, Lines: lines, MaxN: 3})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resp.CTR
	}
	for _, c := range got.Candidates {
		if c.Index < 0 || c.Index >= len(cands) {
			t.Fatalf("candidate index %d out of range", c.Index)
		}
		if math.Abs(c.CTR-want[c.Index]) > 1e-12 {
			t.Errorf("candidate %d: CTR %v, want %v", c.Index, c.CTR, want[c.Index])
		}
		if c.Lines != nil || c.Edit != nil {
			t.Errorf("explicit candidate %d echoed lines/edit", c.Index)
		}
	}
	// Ranked best-first by CTR, and best is the argmax with its lines.
	for i := 1; i < len(got.Candidates); i++ {
		if got.Candidates[i-1].CTR < got.Candidates[i].CTR {
			t.Errorf("ranking broken at %d: %v < %v", i, got.Candidates[i-1].CTR, got.Candidates[i].CTR)
		}
	}
	argmax := 0
	for i := range want {
		if want[i] > want[argmax] {
			argmax = i
		}
	}
	if want[argmax] > got.Base.CTR {
		if got.Best.Index != argmax {
			t.Errorf("best index %d, want argmax %d", got.Best.Index, argmax)
		}
	} else if got.Best.Index != -1 {
		t.Errorf("nothing beats base but best index is %d", got.Best.Index)
	}
	if len(got.Best.Lines) == 0 {
		t.Error("best carries no lines")
	}

	// top_k bounds the ranking without changing the order.
	var top optimizeResponse
	if code := postJSON(t, ts.URL+"/v1/optimize", optimizeRequest{
		Model: engine.NameMicro, Lines: base, Candidates: cands, MaxN: 3, TopK: 2,
	}, &top); code != http.StatusOK {
		t.Fatalf("top_k status %d", code)
	}
	if len(top.Candidates) != 2 {
		t.Fatalf("top_k=2 returned %d candidates", len(top.Candidates))
	}
	for i := range top.Candidates {
		if top.Candidates[i].Index != got.Candidates[i].Index {
			t.Errorf("top_k rank %d: index %d, want %d", i, top.Candidates[i].Index, got.Candidates[i].Index)
		}
	}
}

func TestOptimizeEndpointGenerates(t *testing.T) {
	ts, eng, _ := newTestServer(t)
	var got optimizeResponse
	code := postJSON(t, ts.URL+"/v1/optimize", optimizeRequest{
		Model: engine.NameMicro,
		Lines: []string{"acme store flights", "plain words", "book today"},
		// "find cheap" is the model's high-relevance phrase; generation
		// should discover variants that insert it.
		Inventory: []string{"find cheap", "flights"},
		MaxN:      3, TopK: 5,
	}, &got)
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, got)
	}
	if got.Generated == 0 {
		t.Fatal("no candidates generated from the inventory")
	}
	if len(got.Candidates) == 0 || len(got.Candidates) > 5 {
		t.Fatalf("top_k=5 returned %d candidates", len(got.Candidates))
	}
	for _, c := range got.Candidates {
		if len(c.Lines) == 0 || c.Edit == nil {
			t.Errorf("generated candidate %d lacks lines or edit: %+v", c.Index, c)
		}
	}
	// Inserting the high-relevance phrase must beat the base; the best
	// entry's reported CTR must match scoring its lines directly.
	if !(got.Best.CTR > got.Base.CTR) {
		t.Errorf("best CTR %v does not beat base %v", got.Best.CTR, got.Base.CTR)
	}
	resp, err := eng.ScoreCTR(nil, engine.Request{Model: engine.NameMicro, Lines: got.Best.Lines, MaxN: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Best.CTR-resp.CTR) > 1e-12 {
		t.Errorf("best CTR %v, rescoring its lines gives %v", got.Best.CTR, resp.CTR)
	}

	// The optimize counters must have moved.
	var hb struct {
		Serving map[string]float64 `json:"serving"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &hb); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if hb.Serving["optimizes"] == 0 || hb.Serving["optimize_candidates"] == 0 {
		t.Errorf("optimize counters did not move: %v", hb.Serving)
	}
}

func TestOptimizeEndpointErrors(t *testing.T) {
	ts, _, _ := newTestServer(t)
	cases := []struct {
		name string
		req  optimizeRequest
		code int
	}{
		{"no lines", optimizeRequest{Model: engine.NameMicro, Candidates: [][]string{{"x"}}}, http.StatusBadRequest},
		{"no candidates or inventory", optimizeRequest{Model: engine.NameMicro, Lines: []string{"x"}}, http.StatusBadRequest},
		{"unknown model", optimizeRequest{Model: "nope", Lines: []string{"x"}, Candidates: [][]string{{"y"}}}, http.StatusNotFound},
		{"macro model", optimizeRequest{Model: "pbm", Lines: []string{"x"}, Candidates: [][]string{{"y"}}}, http.StatusUnprocessableEntity},
		{"oversized base for generation", optimizeRequest{Model: engine.NameMicro,
			Lines: []string{"a", "b", "c", "d"}, Inventory: []string{"x"}}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		var got optimizeResponse
		if code := postJSON(t, ts.URL+"/v1/optimize", tc.req, &got); code != tc.code {
			t.Errorf("%s: status %d, want %d (%+v)", tc.name, code, tc.code, got)
		}
	}

	// Over the batch limit: 413.
	big := make([][]string, maxBatchItems+1)
	for i := range big {
		big[i] = []string{"x"}
	}
	var got errorBody
	if code := postJSON(t, ts.URL+"/v1/optimize", optimizeRequest{
		Model: engine.NameMicro, Lines: []string{"x"}, Candidates: big,
	}, &got); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized candidate set: status %d, want 413 (%+v)", code, got)
	}
}

// TestOptimizeRankingSameOverHTTPAndMBSP sends the same candidate sets
// to /v1/optimize and as MBSP optimize frames: the two front ends must
// rank the same indices in the same order, with the same scores, and
// pick the same best. Duplicated candidates force ties (broken toward
// the earlier candidate), and a candidate equal to the base ties with
// it (the base is kept).
func TestOptimizeRankingSameOverHTTPAndMBSP(t *testing.T) {
	ts, eng, _ := newTestServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := binproto.NewServer(eng, nil)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(context.Background(), c)
		}
	}()
	cli, err := binproto.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	base := []string{"find cheap flights", "to rome", "book today"}
	hook := []string{"find cheap flights", "to rome", "flights today"}
	plain := []string{"plain words", "to rome", "book today"}
	long := []string{"find cheap flights to rome", "flights", "book today"}
	for _, set := range []struct {
		name  string
		cands [][]string
	}{
		{"ties among winners", [][]string{hook, plain, long, hook, base, long, plain}},
		{"nothing beats the base", [][]string{long, base, long, base}},
	} {
		n := len(set.cands)
		for _, k := range []int{0, 3, n + 5} {
			var hr optimizeResponse
			if code := postJSON(t, ts.URL+"/v1/optimize", optimizeRequest{
				Model: engine.NameMicro, Lines: base, Candidates: set.cands, MaxN: 3, TopK: k,
			}, &hr); code != http.StatusOK {
				t.Fatalf("%s, top_k %d: status %d: %+v", set.name, k, code, hr)
			}
			br, err := cli.Optimize(binproto.OptimizeRequest{
				Model: engine.NameMicro, Lines: base, Candidates: set.cands, MaxN: 3, TopK: k,
			})
			if err != nil || br.Err != "" {
				t.Fatalf("%s, top_k %d: MBSP %v / %q", set.name, k, err, br.Err)
			}
			want := n
			if k > 0 && k < n {
				want = k
			}
			if len(hr.Candidates) != want || len(br.Ranked) != want {
				t.Fatalf("%s, top_k %d: ranked %d over HTTP and %d over MBSP, want %d",
					set.name, k, len(hr.Candidates), len(br.Ranked), want)
			}
			for r, hc := range hr.Candidates {
				bc := br.Ranked[r]
				if hc.Index != bc.Index || hc.CTR != bc.CTR || hc.Score != bc.Score {
					t.Errorf("%s, top_k %d, rank %d: HTTP %+v, MBSP %+v", set.name, k, r, hc, bc)
				}
				if r > 0 {
					prev := hr.Candidates[r-1]
					if prev.CTR < hc.CTR || (prev.CTR == hc.CTR && prev.Index > hc.Index) {
						t.Errorf("%s, top_k %d: rank %d (%+v) after %+v", set.name, k, r, hc, prev)
					}
				}
			}
			if hr.Best.Index != br.Best {
				t.Errorf("%s, top_k %d: best %d over HTTP, %d over MBSP", set.name, k, hr.Best.Index, br.Best)
			}
			if set.name == "nothing beats the base" && hr.Best.Index != -1 {
				t.Errorf("%s, top_k %d: best %d, want the base", set.name, k, hr.Best.Index)
			}
		}
	}
}
