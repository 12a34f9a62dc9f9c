package binproto

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestHeaderTagRoundTrip pins the header codec: the tag travels in
// bytes 6–7 and a zero tag (what pre-tag builds wrote as reserved
// bytes) still parses.
func TestHeaderTagRoundTrip(t *testing.T) {
	b := make([]byte, HeaderSize)
	for _, tag := range []uint16{0, 1, 7, 0xBEEF, 0xFFFF} {
		putHeaderTag(b, FrameScore, tag, 42)
		ftype, got, n, err := parseHeader(b)
		if err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
		if ftype != FrameScore || got != tag || n != 42 {
			t.Fatalf("tag %d: parsed (type=%d tag=%d n=%d)", tag, ftype, got, n)
		}
	}
	// A zero tag is what old clients effectively send.
	putHeaderTag(b, FrameScore, 0, 9)
	if _, tag, _, err := parseHeader(b); err != nil || tag != 0 {
		t.Fatalf("zero-tag header: tag=%d err=%v", tag, err)
	}
}

// TestServerEchoesTag drives a live connection and checks every
// result frame echoes its request's tag, across both frame kinds and
// multiple sequential frames.
func TestServerEchoesTag(t *testing.T) {
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

	// ScoreBatch and Optimize verify the echo internally; a server
	// that stopped echoing would fail these calls.
	for i := 0; i < 3; i++ {
		if _, err := cli.ScoreBatch(testRequests()); err != nil {
			t.Fatalf("score frame %d: %v", i, err)
		}
	}
	if _, err := cli.Optimize(OptimizeRequest{
		ID:         "o1",
		Lines:      microLines,
		Candidates: [][]string{{"Acme Air", "Cheap flights", "Great rates"}},
	}); err != nil {
		t.Fatalf("optimize frame: %v", err)
	}
	if cli.seq != 4 {
		t.Fatalf("client seq = %d after 4 frames, want 4", cli.seq)
	}
}

// TestFrameLatencyAndTracing checks the per-frame histogram fills and
// slow frames land in the trace ring with the mbsp-<tag> identity.
func TestFrameLatencyAndTracing(t *testing.T) {
	eng := testEngine(t)
	srv := NewServer(eng, nil)
	ring := obs.NewTraceRing(8, 0) // threshold 0: every frame traces
	srv.SetTracing(ring)
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
	if _, err := cli.ScoreBatch(testRequests()); err != nil {
		t.Fatal(err)
	}

	// The server records the frame after it has written the reply, the
	// histogram first and the trace second: wait for the trace, then
	// both are there.
	deadline := time.Now().Add(2 * time.Second)
	for ring.Added() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for _, m := range srv.Metrics() {
		if m.Name == "microserve_mbsp_frame_duration_seconds" && m.Hist.Count() != 1 {
			t.Fatalf("frame latency samples = %d, want 1", m.Hist.Count())
		}
	}
	traces := ring.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.ID != "mbsp-1" {
		t.Errorf("trace ID %q, want mbsp-1 (first client tag)", tr.ID)
	}
	if tr.Proto != "mbsp" || tr.Kind != "score" {
		t.Errorf("trace proto/kind (%q,%q), want (mbsp,score)", tr.Proto, tr.Kind)
	}
	if tr.Items != len(testRequests()) {
		t.Errorf("trace items %d, want %d", tr.Items, len(testRequests()))
	}
	if tr.TotalMS < 0 || len(tr.Stages) != 1 {
		t.Errorf("trace timing malformed: %+v", tr)
	}
}
