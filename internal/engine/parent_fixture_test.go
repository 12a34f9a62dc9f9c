package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clickmodel"
)

// parentFixtures is testdata/parent_8bb530c: three v2 artifacts written
// by the commit before the vocabulary's hash scheme changed — probe
// tables and tags placed under the old hash — and what that commit's
// engine answered from them, by bits. generate_test.go beside them is
// the program that wrote them.
const parentFixtures = "testdata/parent_8bb530c"

type parentGolden struct {
	Micro []struct {
		Lines      []string
		MaxN       int `json:"max_n"`
		CTR, Score string
	}
	PBM, DBN []struct {
		Query string
		Docs  []string
		Probs []string
	}
}

// captureLog collects what the standard logger prints while fn runs:
// the vocabulary says there when it had to be re-placed.
func captureLog(t *testing.T, fn func()) string {
	t.Helper()
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)
	fn()
	return buf.String()
}

// TestParentArtifactsLoadAndScoreIdentically is the compatibility
// contract of a hash-scheme change: an artifact whose probe tables were
// placed under the previous scheme loads through every route — stream,
// trusted file, verified file — by re-placing its vocabularies, and
// answers exactly what the build that wrote it answered. Exported again
// it is a current artifact: it loads without re-placing, answers the
// same, and exporting that changes nothing.
func TestParentArtifactsLoadAndScoreIdentically(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(parentFixtures, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want parentGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Micro) == 0 || len(want.PBM) == 0 || len(want.DBN) == 0 {
		t.Fatal("golden file is missing a model")
	}
	ctx := context.Background()
	bitsOf := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	// check scores every golden input of one model against e.
	check := func(t *testing.T, e *Engine, model string) {
		t.Helper()
		switch model {
		case NameMicro:
			for i, g := range want.Micro {
				resp, err := e.ScoreCTR(ctx, Request{Model: model, Lines: g.Lines, MaxN: g.MaxN})
				if err != nil {
					t.Fatalf("micro %d: %v", i, err)
				}
				if bitsOf(resp.CTR) != g.CTR || bitsOf(resp.Score) != g.Score {
					t.Errorf("micro %d %q: CTR %s score %s, the parent answered %s and %s", i, g.Lines, bitsOf(resp.CTR), bitsOf(resp.Score), g.CTR, g.Score)
				}
			}
		default:
			sessions := want.PBM
			if model == "dbn" {
				sessions = want.DBN
			}
			for i, g := range sessions {
				s := clickmodel.Session{Query: g.Query, Docs: g.Docs, Clicks: make([]bool, len(g.Docs))}
				resp, err := e.ScoreCTR(ctx, Request{Model: model, Session: &s})
				if err != nil {
					t.Fatalf("%s %d: %v", model, i, err)
				}
				if len(resp.Positions) != len(g.Probs) {
					t.Fatalf("%s %d: %d positions, the parent answered %d", model, i, len(resp.Positions), len(g.Probs))
				}
				for pos, p := range resp.Positions {
					if bitsOf(p) != g.Probs[pos] {
						t.Errorf("%s %d position %d: %s, the parent answered %s", model, i, pos, bitsOf(p), g.Probs[pos])
					}
				}
			}
		}
	}

	loaders := []struct {
		name string
		load func(e *Engine, path string) (ModelInfo, error)
	}{
		{"stream", func(e *Engine, path string) (ModelInfo, error) {
			f, err := os.Open(path)
			if err != nil {
				return ModelInfo{}, err
			}
			defer f.Close()
			return e.LoadSnapshot("", f)
		}},
		{"file", func(e *Engine, path string) (ModelInfo, error) { return e.LoadSnapshotFile("", path) }},
		{"file verified", func(e *Engine, path string) (ModelInfo, error) { return e.LoadSnapshotFileVerified("", path) }},
	}
	for _, model := range []string{NameMicro, "pbm", "dbn"} {
		fixture := filepath.Join(parentFixtures, model+".mbs2")
		written, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range loaders {
			t.Run(model+"/"+l.name, func(t *testing.T) {
				e := New()
				var info ModelInfo
				said := captureLog(t, func() { info, err = l.load(e, fixture) })
				if err != nil {
					t.Fatalf("loading the parent's artifact: %v", err)
				}
				if info.Name != model {
					t.Fatalf("installed as %q, want %q", info.Name, model)
				}
				if !strings.Contains(said, "probe table rebuilt") {
					t.Errorf("the load did not say it re-placed a vocabulary (log: %q): is the fixture still placed under the parent's hash?", said)
				}
				check(t, e, model)

				var exported bytes.Buffer
				if err := e.SaveSnapshot(info.Ref(), &exported); err != nil {
					t.Fatalf("re-export: %v", err)
				}
				if bytes.Equal(exported.Bytes(), written) {
					t.Error("the re-export is the parent's bytes: nothing was re-placed")
				}
				path := filepath.Join(t.TempDir(), model+".mbs2")
				if err := os.WriteFile(path, exported.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				e2 := New()
				said = captureLog(t, func() { info, err = l.load(e2, path) })
				if err != nil {
					t.Fatalf("loading the re-export: %v", err)
				}
				if said != "" {
					t.Errorf("loading the re-export logged %q: it should load as it stands", said)
				}
				check(t, e2, model)
				var again bytes.Buffer
				if err := e2.SaveSnapshot(info.Ref(), &again); err != nil {
					t.Fatalf("second re-export: %v", err)
				}
				if !bytes.Equal(again.Bytes(), exported.Bytes()) {
					t.Error("exporting a current artifact changed it")
				}
			})
		}
	}
}
