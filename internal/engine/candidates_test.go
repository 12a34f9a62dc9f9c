package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coreref"
)

// testCandidates builds the optimize workload shape over testLines:
// single-line edits of the shared base.
func testCandidates(n int) [][]string {
	cands := make([][]string, n)
	for i := range cands {
		edit := make([]string, len(testLines))
		copy(edit, testLines)
		edit[i%len(edit)] = "variant phrase " + strconv.Itoa(i)
		cands[i] = edit
	}
	return cands
}

func TestEngineScoreCandidatesMatchesScoreCTR(t *testing.T) {
	e := New()
	info := e.UseMicro(testMicroModel())
	ctx := context.Background()
	cands := testCandidates(24)

	out, got, err := e.ScoreCandidates(ctx, NameMicro, cands, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != info.Name || got.Version != info.Version {
		t.Fatalf("served by %s@%d, want %s@%d", got.Name, got.Version, info.Name, info.Version)
	}
	if len(out) != len(cands) {
		t.Fatalf("%d candidates scored as %d results", len(cands), len(out))
	}
	for k, lines := range cands {
		resp, err := e.ScoreCTR(ctx, Request{Model: NameMicro, Lines: lines, MaxN: 3})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(out[k].CTR-resp.CTR) > 1e-12 || math.Abs(out[k].Score-resp.Score) > 1e-12 {
			t.Fatalf("cand %d: set (%v, %v) vs ScoreCTR (%v, %v)", k, out[k].CTR, out[k].Score, resp.CTR, resp.Score)
		}
	}

	// The map-based reference (no compiled form) must agree too.
	out2 := coreref.ScoreCandidates(testMicroModel(), cands, 3, nil)
	for k := range cands {
		if math.Abs(out2[k].CTR-out[k].CTR) > 1e-12 || math.Abs(out2[k].Score-out[k].Score) > 1e-12 {
			t.Fatalf("cand %d: map fallback (%v, %v) vs compiled (%v, %v)", k, out2[k].CTR, out2[k].Score, out[k].CTR, out[k].Score)
		}
	}
}

func TestEngineScoreCandidatesErrors(t *testing.T) {
	e := New()
	if _, _, err := e.ScoreCandidates(context.Background(), "nope", nil, 2, nil); !errors.Is(err, ErrNoModel) {
		t.Fatalf("unknown model: err = %v, want ErrNoModel", err)
	}
	if _, err := e.Fit("pbm", mustCompile(t, testSessions(20)), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ScoreCandidates(context.Background(), "pbm", testCandidates(2), 2, nil); !errors.Is(err, ErrNoEvidence) {
		t.Fatalf("macro model: err = %v, want ErrNoEvidence", err)
	}
}

// TestEngineScoreCandidatesHotSwap hot-swaps the micro model while
// candidate sets are being scored; under -race this pins that a set is
// served off one consistently resolved version with no data race.
func TestEngineScoreCandidatesHotSwap(t *testing.T) {
	e := New()
	e.UseMicro(testMicroModel())
	cands := testCandidates(64)
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m := testMicroModel()
			m.Relevance["swapped "+strconv.Itoa(i)] = 0.9
			e.UseMicro(m)
		}
	}()
	var out []core.CandidateScore
	for i := 0; i < 200; i++ {
		var err error
		out, _, err = e.ScoreCandidates(ctx, NameMicro, cands, 2, out)
		if err != nil {
			t.Fatal(err)
		}
		for k := range out {
			if !(out[k].CTR > 0 && out[k].CTR <= 1) {
				t.Fatalf("iteration %d cand %d: CTR %v out of (0,1]", i, k, out[k].CTR)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestTopK drives the bounded selector against a reference sort across
// random workloads, including duplicate scores (ties break toward the
// lower index).
func TestTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tk TopK
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(50)
		k := rng.Intn(8)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(10)) / 4 // duplicates likely
		}
		tk.Reset(k)
		for i, v := range vals {
			tk.Offer(i, v)
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			if vals[order[a]] != vals[order[b]] {
				return vals[order[a]] > vals[order[b]]
			}
			return order[a] < order[b]
		})
		want := k
		if n < want {
			want = n
		}
		idx, val := tk.Sorted()
		if len(idx) != want || len(val) != want {
			t.Fatalf("trial %d: %d survivors, want %d", trial, len(idx), want)
		}
		for i := 0; i < want; i++ {
			if int(idx[i]) != order[i] || val[i] != vals[order[i]] {
				t.Fatalf("trial %d (n=%d k=%d): rank %d = (%d, %v), want (%d, %v)\nvals: %v",
					trial, n, k, i, idx[i], val[i], order[i], vals[order[i]], vals)
			}
		}
	}
}

func TestTopKZero(t *testing.T) {
	var tk TopK
	tk.Reset(0)
	tk.Offer(0, 1)
	if idx, _ := tk.Sorted(); len(idx) != 0 {
		t.Fatalf("k=0 kept %d survivors", len(idx))
	}
	tk.Reset(-3)
	tk.Offer(1, 2)
	if len(tk.idx) != 0 {
		t.Fatalf("k<0 kept %d survivors", len(tk.idx))
	}
}

// TestTopKNoalloc backs the //mb:noalloc annotations on Offer, Sorted
// and Rank: a warm Reset/Offer/Sorted cycle, and a warm Rank, must not
// allocate.
func TestTopKNoalloc(t *testing.T) {
	var tk TopK
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = float64((i * 2654435761) % 1000)
	}
	cycle := func() {
		tk.Reset(8)
		for i, v := range vals {
			tk.Offer(i, v)
		}
		idx, _ := tk.Sorted()
		if len(idx) != 8 {
			t.Fatal("bad survivor count")
		}
	}
	cycle() // warm the backing arrays
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("warm top-k cycle allocates %v/op, want 0", allocs)
	}

	scores := make([]core.CandidateScore, len(vals)+1)
	for i, v := range vals {
		scores[i+1].CTR = v
	}
	rank := func() {
		if idx, best := tk.Rank(scores, 8); len(idx) != 8 || best != int(idx[0]) {
			t.Fatal("bad ranking")
		}
	}
	rank()
	if allocs := testing.AllocsPerRun(200, rank); allocs != 0 {
		t.Fatalf("warm Rank allocates %v/op, want 0", allocs)
	}
}

// TestEngineScoreCandidatesNoalloc pins the warm engine path: resolve,
// pin, candidate-set score, unpin — zero allocations per call.
func TestEngineScoreCandidatesNoalloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates defer records; alloc counts only hold uninstrumented")
	}
	e := New()
	e.UseMicro(testMicroModel())
	ctx := context.Background()
	cands := testCandidates(32)
	var out []core.CandidateScore
	var err error
	out, _, err = e.ScoreCandidates(ctx, NameMicro, cands, 3, out)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		out, _, err = e.ScoreCandidates(ctx, NameMicro, cands, 3, out)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm engine ScoreCandidates allocates %v/op, want 0", allocs)
	}
}
