package engine

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/clickmodel"
	"repro/internal/mmap"
)

// writeV2File fits nothing — it serialises an already-built model as a
// v2 artifact on disk and returns the path.
func writeV2File(t *testing.T, name string, save func(w io.Writer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatalf("save v2 %s: %v", name, err)
	}
	path := filepath.Join(t.TempDir(), name+".mbs2")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func fitClick(t *testing.T, name string, sessions []clickmodel.Session) clickmodel.Model {
	t.Helper()
	m, err := clickmodel.New(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FitLog(mustCompile(t, sessions)); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLoadSnapshotFileV2Parity is the acceptance-criteria parity test:
// a micro model and two click models exported as v2 artifacts, loaded
// through the mmap path, must score within 1e-12 of the fitted
// originals — and, for micro, of the same artifact loaded from a
// stream.
func TestLoadSnapshotFileV2Parity(t *testing.T) {
	sessions := testSessions(600)
	eval := clickmodel.Session{Query: "q", Docs: []string{"a", "b", "zz", "c"}, Clicks: make([]bool, 4)}
	ctx := context.Background()

	t.Run("micro", func(t *testing.T) {
		m := testMicroModel()
		path := writeV2File(t, "micro", m.Save)
		e := New()
		info, err := e.LoadSnapshotFile("", path)
		if err != nil {
			t.Fatalf("LoadSnapshotFile: %v", err)
		}
		if info.Name != NameMicro {
			t.Fatalf("installed as %q, want %q", info.Name, NameMicro)
		}
		// References: the fitted model, never serialised, and the
		// save → stream load → score path.
		fitted := New()
		installed(t, fitted, NameMicro, NewMicroScorer(m))
		var saved bytes.Buffer
		if err := m.Save(&saved); err != nil {
			t.Fatal(err)
		}
		stream := New()
		if _, err := stream.LoadSnapshot("", bytes.NewReader(saved.Bytes())); err != nil {
			t.Fatal(err)
		}
		for maxN := 1; maxN <= 3; maxN++ {
			req := Request{Lines: testLines, MaxN: maxN}
			got, err := e.ScoreCTR(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			for _, ref := range []struct {
				what string
				e    *Engine
			}{{"fitted", fitted}, {"stream", stream}} {
				want, err := ref.e.ScoreCTR(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got.CTR-want.CTR) > 1e-12 || math.Abs(got.Score-want.Score) > 1e-12 {
					t.Fatalf("maxN %d: mapped (%v, %v) vs %s (%v, %v)", maxN, got.CTR, got.Score, ref.what, want.CTR, want.Score)
				}
			}
		}
	})

	for _, name := range []string{"pbm", "dbn"} {
		t.Run(name, func(t *testing.T) {
			m := fitClick(t, name, sessions)
			path := writeV2File(t, name, m.Save)
			e := New()
			info, err := e.LoadSnapshotFileVerified("", path)
			if err != nil {
				t.Fatalf("LoadSnapshotFileVerified: %v", err)
			}
			if info.Name != name {
				t.Fatalf("installed as %q, want %q", info.Name, name)
			}
			if info.Params == 0 {
				t.Error("mapped model reports 0 params")
			}
			resp, err := e.ScoreCTR(ctx, Request{Model: name, Session: &eval})
			if err != nil {
				t.Fatal(err)
			}
			want := m.ClickProbsInto(eval, nil)
			if len(resp.Positions) != len(want) {
				t.Fatalf("%d positions, want %d", len(resp.Positions), len(want))
			}
			for i := range want {
				if math.Abs(resp.Positions[i]-want[i]) > 1e-12 {
					t.Fatalf("pos %d: mapped %v, fitted %v", i, resp.Positions[i], want[i])
				}
			}
		})
	}
}

// TestHotSwapUnderLoadPinnedReaders is the acceptance-criteria drain
// test: scoring load runs against mapped artifacts while repeated
// installs under WithKeepVersions(2) prune old versions. In-flight
// readers pin the mapping they resolved, so no request observes an
// unmapped table; once the load quiesces, every pruned artifact has
// drained to zero references and only the retained versions hold
// their owner reference.
func TestHotSwapUnderLoadPinnedReaders(t *testing.T) {
	const installs = 24
	// Pre-serialise distinguishable artifact generations.
	blobs := make([][]byte, installs)
	for i := range blobs {
		m := testMicroModel()
		m.Relevance["flights"] = 0.3 + 0.5*float64(i)/installs
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		blobs[i] = buf.Bytes()
	}

	e := New(WithKeepVersions(2), WithWorkers(4))
	arts := make([]*mmap.Artifact, installs)

	// Install generation 0 so scoring can start immediately.
	install := func(i int) {
		art, err := mmap.FromBytes(blobs[i])
		if err != nil {
			t.Errorf("FromBytes(%d): %v", i, err)
			return
		}
		arts[i] = art
		if _, err := e.load(NameMicro, art, false); err != nil {
			t.Errorf("install %d: %v", i, err)
		}
	}
	install(0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	reqs := make([]Request, 32)
	for i := range reqs {
		reqs[i] = Request{Lines: testLines}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			var out []Response
			for {
				select {
				case <-stop:
					return
				default:
				}
				out = e.ScoreBatchInto(ctx, reqs, out)
				for _, r := range out {
					if r.Err != nil {
						t.Errorf("bare-name request failed mid-swap: %v", r.Err)
						return
					}
					if r.CTR <= 0 || r.CTR > 1 {
						t.Errorf("nonsensical CTR %v from a possibly-unmapped table", r.CTR)
						return
					}
				}
				// Pinned version references may race pruning; that must
				// surface as ErrNoModel, never a crash or a wrong score.
				if _, err := e.ScoreCTR(ctx, Request{Model: "micro@7", Lines: testLines}); err != nil && !errors.Is(err, ErrNoModel) {
					t.Errorf("pinned request failed with %v, want nil or ErrNoModel", err)
					return
				}
			}
		}()
	}

	for i := 1; i < installs; i++ {
		install(i)
	}
	close(stop)
	wg.Wait()

	// Quiesced: versions (installs-1) and installs are retained (keep=2),
	// everything older must have drained and unmapped.
	for i, art := range arts {
		if art == nil {
			continue
		}
		refs := art.Refs()
		if i < installs-2 && refs != 0 {
			t.Errorf("pruned artifact %d still holds %d refs", i, refs)
		}
		if i >= installs-2 && refs != 1 {
			t.Errorf("retained artifact %d has %d refs, want the table's owner ref", i, refs)
		}
	}
}

// TestScoreBatchIntoReuses pins the buffer-reuse contract: a
// sufficiently large out slice is written in place, and stale state
// from the previous batch never leaks into the next.
func TestScoreBatchIntoReuses(t *testing.T) {
	e := New()
	e.UseMicro(testMicroModel())
	ctx := context.Background()

	buf := make([]Response, 8)
	reqs := []Request{
		{ID: "a", Lines: testLines},
		{ID: "b", Lines: nil}, // errors: no evidence
	}
	out := e.ScoreBatchInto(ctx, reqs, buf)
	if &out[0] != &buf[0] {
		t.Error("out slice was reallocated despite sufficient capacity")
	}
	if len(out) != 2 || out[0].Err != nil || out[1].Err == nil {
		t.Fatalf("unexpected batch outcome: %+v", out)
	}

	// Second batch swaps the error position; the recycled elements must
	// not carry the first batch's IDs, errors or scores.
	reqs2 := []Request{
		{ID: "c", Lines: nil},
		{ID: "d", Lines: testLines},
	}
	out2 := e.ScoreBatchInto(ctx, reqs2, out)
	if out2[0].Err == nil || out2[0].ID != "c" || out2[0].Error == "" {
		t.Errorf("recycled element 0 not overwritten: %+v", out2[0])
	}
	if out2[1].Err != nil || out2[1].ID != "d" || out2[1].Error != "" || out2[1].CTR <= 0 {
		t.Errorf("recycled element 1 not overwritten: %+v", out2[1])
	}
}
