package binproto

import (
	"bytes"
	"context"
	"math"
	"net"
	"strconv"
	"testing"
	"unsafe"
)

func testOptimizeRequest(n int) OptimizeRequest {
	cands := make([][]string, n)
	for i := range cands {
		edit := make([]string, len(microLines))
		copy(edit, microLines)
		edit[i%len(edit)] = "variant phrase " + strconv.Itoa(i)
		cands[i] = edit
	}
	// One candidate that genuinely beats the base: it doubles down on
	// the model's high-relevance phrases.
	cands[0] = []string{"find cheap flights", "find cheap flights to rome", "flights"}
	return OptimizeRequest{ID: "o1", Model: "micro", MaxN: 2, Lines: microLines, Candidates: cands}
}

func TestOptimizeRoundTrip(t *testing.T) {
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

	req := testOptimizeRequest(16)
	all := append([][]string{req.Lines}, req.Candidates...)
	want, _, err := eng.ScoreCandidates(context.Background(), req.Model, all, req.MaxN, nil)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 3; round++ { // reuse the same connection
		res, err := cli.Optimize(req)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Err != "" {
			t.Fatalf("round %d: result error %q", round, res.Err)
		}
		if res.ID != "o1" || res.Model != "micro" {
			t.Errorf("round %d: echo (%q, %q)", round, res.ID, res.Model)
		}
		if math.Abs(res.BaseCTR-want[0].CTR) > 1e-15 || math.Abs(res.BaseScore-want[0].Score) > 1e-15 {
			t.Errorf("round %d: base (%v, %v), want (%v, %v)", round, res.BaseCTR, res.BaseScore, want[0].CTR, want[0].Score)
		}
		if len(res.Ranked) != len(req.Candidates) {
			t.Fatalf("round %d: %d ranked, want %d", round, len(res.Ranked), len(req.Candidates))
		}
		argmax := 0
		for i := range req.Candidates {
			if want[i+1].CTR > want[argmax+1].CTR {
				argmax = i
			}
		}
		for rank, rc := range res.Ranked {
			if math.Abs(rc.CTR-want[rc.Index+1].CTR) > 1e-15 || math.Abs(rc.Score-want[rc.Index+1].Score) > 1e-15 {
				t.Errorf("round %d rank %d: cand %d scored (%v, %v), want (%v, %v)",
					round, rank, rc.Index, rc.CTR, rc.Score, want[rc.Index+1].CTR, want[rc.Index+1].Score)
			}
			if rank > 0 && res.Ranked[rank-1].CTR < rc.CTR {
				t.Errorf("round %d: ranking broken at %d", round, rank)
			}
		}
		switch {
		case want[argmax+1].CTR > want[0].CTR:
			if res.Best != argmax {
				t.Errorf("round %d: best %d, want argmax %d", round, res.Best, argmax)
			}
		default:
			if res.Best != -1 {
				t.Errorf("round %d: nothing beats base but best is %d", round, res.Best)
			}
		}
	}

	// top_k bounds the ranking; the best index is unchanged.
	req.TopK = 3
	res, err := cli.Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranked) != 3 {
		t.Fatalf("top_k=3 returned %d ranked", len(res.Ranked))
	}

	// A semantic failure rides inside the result frame and the
	// connection stays usable afterwards.
	bad := req
	bad.Model = "nope"
	res, err = cli.Optimize(bad)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == "" {
		t.Error("unknown model produced no result error")
	}
	if res, err = cli.Optimize(req); err != nil || res.Err != "" {
		t.Fatalf("connection unusable after semantic failure: %v / %q", err, res.Err)
	}
}

// TestOptimizeEncodeDecode pins the optimize payload codec round trip
// without a connection.
func TestOptimizeEncodeDecode(t *testing.T) {
	req := testOptimizeRequest(5)
	req.TopK = 2
	payload, err := AppendOptimize(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	st := &connState{}
	id, model, maxN, topK, err := st.decodeOptimize(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != req.ID || model != req.Model || maxN != req.MaxN || topK != req.TopK {
		t.Fatalf("decoded (%q, %q, %d, %d)", id, model, maxN, topK)
	}
	if len(st.opt.cands) != len(req.Candidates)+1 {
		t.Fatalf("%d decoded snippets, want %d", len(st.opt.cands), len(req.Candidates)+1)
	}
	for i, line := range req.Lines {
		if st.opt.cands[0][i] != line {
			t.Fatalf("base line %d: %q", i, st.opt.cands[0][i])
		}
	}
	for k, cand := range req.Candidates {
		for i, line := range cand {
			if st.opt.cands[k+1][i] != line {
				t.Fatalf("cand %d line %d: %q, want %q", k, i, st.opt.cands[k+1][i], line)
			}
		}
	}

	// Truncated payloads fail cleanly, never panic.
	for cut := 1; cut < len(payload); cut += 7 {
		if _, _, _, _, err := st.decodeOptimize(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

// TestProcessOptimizeZeroAlloc backs the //mb:noalloc annotations on
// processOptimize and decodeOptimize: a warm optimize cycle — decode,
// candidate-set score, rank, encode — performs zero heap allocations.
func TestProcessOptimizeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates defer records; alloc counts only hold uninstrumented")
	}
	eng := testEngine(t)
	srv := NewServer(eng, nil)
	req := testOptimizeRequest(32)
	req.TopK = 4
	payload, err := AppendOptimize(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	st := &connState{}
	ctx := context.Background()
	for i := 0; i < 4; i++ { // warm the arenas
		if err := srv.processOptimize(ctx, st, payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := srv.processOptimize(ctx, st, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm optimize cycle allocates %v/op, want 0", allocs)
	}
}

// FuzzDecodeOptimize: an MBSP optimize payload decodes with an error, or
// into a base snippet and at most MaxBatch candidates, every line of
// them a view inside the payload, that encode back to the payload byte
// for byte (the format has no padding and no second spelling). Never a
// panic, never a read past the payload.
func FuzzDecodeOptimize(f *testing.F) {
	for _, req := range []OptimizeRequest{
		testOptimizeRequest(3),
		testOptimizeRequest(40),
		{},
		{ID: "only a base", Lines: []string{"Acme Air", ""}, TopK: 7},
		{Model: "micro", MaxN: 255, Candidates: [][]string{{}, {"x"}, {}}},
	} {
		seed, err := AppendOptimize(nil, &req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2])           // truncated inside a line
		f.Add(seed[:len(seed)-1])           // truncated at the last byte
		f.Add(append(bytes.Clone(seed), 0)) // trailing byte
		flipped := bytes.Clone(seed)
		flipped[len(flipped)/3] ^= 0x80
		f.Add(flipped)
	}
	// Heads that promise more than the payload or the limit allows: a
	// full candidate count, one over it, a base of 65535 lines.
	head := []byte{0, 0, 0, 0, 2, 0, 0} // id "", model "", max_n 2, top_k 0
	f.Add(appendU32(append(bytes.Clone(head), 0, 0), MaxBatch))
	f.Add(appendU32(append(bytes.Clone(head), 0, 0), MaxBatch+1))
	f.Add(append(bytes.Clone(head), 0xff, 0xff))
	var st connState
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, model, maxN, topK, err := st.decodeOptimize(payload)
		if err != nil {
			return
		}
		cands := st.opt.cands
		if len(cands) == 0 || len(cands)-1 > MaxBatch {
			t.Fatalf("decoded %d snippets, want a base and at most %d candidates", len(cands), MaxBatch)
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(payload)))
		for _, s := range append([]string{id, model}, st.opt.lines...) {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); len(s) > 0 && (p < lo || p+uintptr(len(s)) > lo+uintptr(len(payload))) {
				t.Fatalf("%q is not a view inside the payload", s)
			}
		}
		enc, err := AppendOptimize(nil, &OptimizeRequest{ID: id, Model: model, MaxN: maxN, TopK: topK, Lines: cands[0], Candidates: cands[1:]})
		if err != nil {
			t.Fatalf("a decoded optimize call does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, payload) {
			t.Fatalf("re-encoding differs from the payload:\n%x\n%x", enc, payload)
		}
	})
}
