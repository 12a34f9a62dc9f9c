package binproto

import (
	"context"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/engine"
)

// dial connects a client to a binary-protocol (or muxed) address.
func dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

func testEngine(t *testing.T, opts ...engine.Option) *engine.Engine {
	t.Helper()
	e := engine.New(opts...)
	m := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.9, 0.6, 0.3}, Decay: 0.8})
	m.Relevance["find cheap"] = 0.85
	m.Relevance["flights"] = 0.6
	e.UseMicro(m)

	pbm, err := clickmodel.New("pbm")
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]clickmodel.Session, 0, 200)
	docs := []string{"a", "b", "c", "d"}
	for k := 0; k < 200; k++ {
		s := clickmodel.Session{Query: "q", Docs: docs, Clicks: []bool{k%2 == 0, k%3 == 0, false, k%7 == 0}}
		sessions = append(sessions, s)
	}
	c, err := clickmodel.Compile(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if err := pbm.FitLog(c); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Install(pbm.Name(), engine.NewClickModelScorer(pbm), "fit"); err != nil {
		t.Fatal(err)
	}
	return e
}

var microLines = []string{"Acme Air", "Find cheap flights to Rome", "Great rates"}

func testRequests() []engine.Request {
	return []engine.Request{
		{ID: "m1", Lines: microLines},
		{ID: "m2", Lines: microLines, MaxN: 3},
		{ID: "s1", Model: "pbm", Session: &clickmodel.Session{
			Query: "q", Docs: []string{"a", "b", "c"}, Clicks: []bool{true, false, false}}},
		{ID: "bad", Model: "micro"}, // no evidence: per-request error
	}
}

// TestEncodeDecodeRequests pins the codec round trip, including the
// session click bitset and zero-copy string views.
func TestEncodeDecodeRequests(t *testing.T) {
	reqs := testRequests()
	payload, err := AppendRequests(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var st connState
	got, err := st.batch.decodeRequests(payload)
	if err != nil {
		t.Fatalf("decodeRequests: %v", err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d requests, want %d", len(got), len(reqs))
	}
	for i, want := range reqs {
		g := got[i]
		if g.ID != want.ID || g.Model != want.Model {
			t.Errorf("req %d: id/model (%q,%q), want (%q,%q)", i, g.ID, g.Model, want.ID, want.Model)
		}
		if len(g.Lines) != len(want.Lines) {
			t.Errorf("req %d: %d lines, want %d", i, len(g.Lines), len(want.Lines))
			continue
		}
		for j := range want.Lines {
			if g.Lines[j] != want.Lines[j] {
				t.Errorf("req %d line %d: %q, want %q", i, j, g.Lines[j], want.Lines[j])
			}
		}
		if (g.Session == nil) != (want.Session == nil) {
			t.Errorf("req %d: session presence mismatch", i)
			continue
		}
		if want.Session != nil {
			if g.Session.Query != want.Session.Query {
				t.Errorf("req %d: query %q, want %q", i, g.Session.Query, want.Session.Query)
			}
			for j := range want.Session.Docs {
				if g.Session.Docs[j] != want.Session.Docs[j] || g.Session.Clicks[j] != want.Session.Clicks[j] {
					t.Errorf("req %d doc %d: (%q,%v), want (%q,%v)", i, j,
						g.Session.Docs[j], g.Session.Clicks[j], want.Session.Docs[j], want.Session.Clicks[j])
				}
			}
		}
	}
}

// TestServerMatchesJSONSemantics drives a live server over TCP and
// checks every response field against direct engine calls.
func TestServerMatchesJSONSemantics(t *testing.T) {
	eng := testEngine(t)
	srv := NewServer(eng, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(context.Background(), c)
		}
	}()

	cli, err := dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	reqs := testRequests()
	want := eng.ScoreBatch(context.Background(), reqs)
	for round := 0; round < 3; round++ { // reuse the same connection
		got, err := cli.ScoreBatch(reqs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d responses, want %d", round, len(got), len(want))
		}
		for i := range want {
			w, g := want[i], got[i]
			if g.ID != w.ID || g.Model != w.Model || g.ModelVersion != w.ModelVersion {
				t.Errorf("resp %d: (%q,%q,%d), want (%q,%q,%d)", i, g.ID, g.Model, g.ModelVersion, w.ID, w.Model, w.ModelVersion)
			}
			if math.Abs(g.CTR-w.CTR) > 1e-15 || math.Abs(g.Score-w.Score) > 1e-15 {
				t.Errorf("resp %d: ctr/score (%v,%v), want (%v,%v)", i, g.CTR, g.Score, w.CTR, w.Score)
			}
			if len(g.Positions) != len(w.Positions) {
				t.Errorf("resp %d: %d positions, want %d", i, len(g.Positions), len(w.Positions))
			} else {
				for j := range w.Positions {
					if math.Abs(g.Positions[j]-w.Positions[j]) > 1e-15 {
						t.Errorf("resp %d pos %d: %v, want %v", i, j, g.Positions[j], w.Positions[j])
					}
				}
			}
			if (w.Error == "") != (g.Error == "") {
				t.Errorf("resp %d: error %q, want %q", i, g.Error, w.Error)
			}
		}
	}
	c := srv.Metrics().Read()
	if c["mbsp.frames"] != 3 || c["mbsp.requests"] != float64(3*len(reqs)) {
		t.Errorf("counters = %+v, want 3 frames / %d requests", c, 3*len(reqs))
	}
}

// TestProcessZeroAlloc is the acceptance-criteria allocation test: a
// warm connection's full score cycle — decode, batch score, encode —
// performs zero heap allocations, for a three-request frame and for
// the 64-request frame the serving benchmark sends alike, on an engine
// whose strand cap would allow helpers: a frame that size is scored on
// the connection's own goroutine.
func TestProcessZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates defer records; alloc counts only hold uninstrumented")
	}
	eng := testEngine(t, engine.WithWorkers(4))
	srv := NewServer(eng, nil)
	mixed := []engine.Request{
		{ID: "m1", Lines: microLines},
		{ID: "m2", Lines: microLines},
		{ID: "s1", Model: "pbm", Session: &clickmodel.Session{
			Query: "q", Docs: []string{"a", "b", "c"}, Clicks: []bool{true, false, false}}},
	}
	for _, size := range []int{3, 64} {
		reqs := make([]engine.Request, size)
		for i := range reqs {
			reqs[i] = mixed[i%len(mixed)]
		}
		payload, err := AppendRequests(nil, reqs)
		if err != nil {
			t.Fatal(err)
		}
		st := &connState{}
		ctx := context.Background()
		for i := 0; i < 4; i++ { // warm the arenas
			if err := srv.process(ctx, st, payload); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := srv.process(ctx, st, payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("warm score cycle of a %d-request frame allocates %v/op, want 0", size, allocs)
		}
	}
}

// TestStalledPeerIsClosed: a peer that delivers half a frame and then
// nothing is closed once the frame read timeout passes — told why,
// counted as an error — instead of pinning its goroutine and arenas.
func TestStalledPeerIsClosed(t *testing.T) {
	srv := NewServer(testEngine(t), nil)
	srv.readTimeout = 100 * time.Millisecond
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(context.Background(), server)
		close(done)
	}()

	payload, err := AppendRequests(nil, testRequests())
	if err != nil {
		t.Fatal(err)
	}
	frame := append(make([]byte, HeaderSize), payload...)
	putHeaderTag(frame, FrameScore, 9, len(payload))
	if _, err := client.Write(frame[:HeaderSize+len(payload)/2]); err != nil {
		t.Fatal(err)
	}

	ftype, _, msg, err := NewClient(client).readFrame()
	if err != nil {
		t.Fatalf("reading the error frame: %v", err)
	}
	r := reader{b: msg}
	if text := r.str(); ftype != FrameError || !strings.Contains(text, "timeout") {
		t.Errorf("got frame type %d %q, want an error frame naming the timeout", ftype, text)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ServeConn still running 10s after a 100ms read timeout")
	}
	if c := srv.Metrics().Read(); c["mbsp.errors"] != 1 || c["mbsp.frames"] != 0 {
		t.Errorf("counters = %+v, want the stall counted as 1 error and no frame", c)
	}
}

// TestIdleWithinTimeoutKeepsWorking: the timeout restarts with every
// frame, so a connection that pauses for less than it between frames
// outlives it many times over.
func TestIdleWithinTimeoutKeepsWorking(t *testing.T) {
	srv := NewServer(testEngine(t), nil)
	srv.readTimeout = 500 * time.Millisecond
	client, server := net.Pipe()
	go srv.ServeConn(context.Background(), server)
	cli := NewClient(client)
	defer cli.Close()

	for round := 0; round < 4; round++ { // 3 x 200ms of pauses: past one timeout in total
		if round > 0 {
			time.Sleep(200 * time.Millisecond)
		}
		resps, err := cli.ScoreBatch(testRequests())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(resps) != len(testRequests()) || resps[0].Error != "" {
			t.Fatalf("round %d: unexpected responses %+v", round, resps)
		}
	}
	if c := srv.Metrics().Read(); c["mbsp.errors"] != 0 || c["mbsp.frames"] != 4 {
		t.Errorf("counters = %+v, want 4 frames and no errors", c)
	}
}

// TestMalformedFrameFailsClosed sends garbage after the magic; the
// server must answer with an error frame and close, never hang.
func TestMalformedFrameFailsClosed(t *testing.T) {
	eng := testEngine(t)
	srv := NewServer(eng, nil)
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(context.Background(), server)
		close(done)
	}()

	// Valid header, truncated payload encoding.
	frame := make([]byte, HeaderSize, HeaderSize+4)
	frame = appendU32(frame, 5) // claims 5 requests, provides none
	putHeaderTag(frame, FrameScore, 7, 4)
	if _, err := client.Write(frame); err != nil {
		t.Fatal(err)
	}
	cli := NewClient(client)
	ftype, tag, payload, err := cli.readFrame()
	if err != nil {
		t.Fatalf("reading error frame: %v", err)
	}
	if ftype != FrameError {
		t.Fatalf("frame type %d, want error", ftype)
	}
	if tag != 7 {
		t.Fatalf("error frame tag %d, want the request's tag 7", tag)
	}
	r := reader{b: payload}
	if msg := r.str(); !strings.Contains(msg, "truncated") {
		t.Errorf("error message %q should mention truncation", msg)
	}
	client.Close()
	<-done
}

// TestMuxSplitsProtocols serves HTTP and binary clients over one
// listener concurrently.
func TestMuxSplitsProtocols(t *testing.T) {
	eng := testEngine(t)
	bin := NewServer(eng, nil)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mux := NewMux(inner, bin)
	defer mux.Close()

	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok"))
	})}
	go httpSrv.Serve(mux)
	defer httpSrv.Close()

	addr := mux.Addr().String()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			resp, err := http.Get("http://" + addr + "/healthz")
			if err != nil {
				t.Errorf("http over mux: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("http status %d", resp.StatusCode)
			}
		}()
		go func() {
			defer wg.Done()
			cli, err := dial(addr)
			if err != nil {
				t.Errorf("binary over mux: %v", err)
				return
			}
			defer cli.Close()
			resps, err := cli.ScoreBatch([]engine.Request{{ID: "x", Lines: microLines}})
			if err != nil {
				t.Errorf("binary score over mux: %v", err)
				return
			}
			if len(resps) != 1 || resps[0].Error != "" || resps[0].CTR <= 0 {
				t.Errorf("unexpected binary response: %+v", resps)
			}
		}()
	}
	wg.Wait()
}
